"""Monte Carlo and closed-form second-moment quantities for group ensembles.

The central objects are twirled two-copy operators E_U (U V U^dag)^{x2} and
their traces against observables such as regional swaps.  For the orthogonal
and symplectic groups the twirl of a single-qubit Z has a three-term closed
form over {1, S, E_G} whose coefficients are exact rationals; Monte Carlo
estimates reconstruct it entrywise.  Frobenius-Schur indicators and commutant
dimensions distinguish real, complex, and quaternionic representation types.

All estimators reduce the two-copy trace to d x d matrix products, so one
sample costs a few dense multiplications at dimension 2^n.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cgraph, densesim, groups, pauli, rng
from .errors import BudgetError, ValidationError

logger = logging.getLogger(__name__)

# largest estimated cost of a run of dense Haar draws (a Frobenius-Schur
# estimate, the dense matchgate side of an experiment), in complex
# multiply-adds (d^3 per d x d product): 20 s to 2 min on one core of a
# 2-core x86 machine
FS_COST_CAP = 1e11


@dataclass(frozen=True)
class MomentEstimate:
    """A Monte Carlo mean with its standard error and provenance."""

    mean: float
    stderr: float
    samples: int
    seed: int | None


@dataclass(frozen=True)
class SwapRegionTag:
    """Marks the observable swap-on-region, enabling the d x d shortcut."""

    region: tuple[int, ...]


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
    bell = densesim.bell_state(n)
    Om = form.dense()
    w = densesim.apply_two_copy(np.eye(d, dtype=np.complex128), Om, bell)
    u = densesim.apply_two_copy(np.eye(d, dtype=np.complex128), Om.T, bell)
    return d * np.outer(w, u)


def second_moment_closed_form(kind: str, n: int) -> np.ndarray:
    """Dense twirl of Z on one qubit: alpha 1 + beta S + gamma E_G.

    Valid for V = Z acting on any single qubit other than the symplectic form
    qubit; the three coefficients do not depend on which qubit that is.
    """
    d = 1 << n
    if 2 * n > densesim.STATE_QUBIT_CAP:
        raise BudgetError(f"two-copy closed form needs 2n <= {densesim.STATE_QUBIT_CAP}")
    alpha, beta, gamma = weingarten_coefficients(kind, d)
    form = groups.orthogonal_form(n) if kind == "orthogonal" else groups.symplectic_form(n)
    eye2 = np.eye(d * d, dtype=np.complex128)
    swap = densesim.swap_region(tuple(range(n)), n)
    return float(alpha) * eye2 + float(beta) * swap + float(gamma) * form_insertion_dense(form, n)


def mc_second_moment_matrix(G: groups.GroupSpec, V, M: int, seed: int):
    """Entrywise Monte Carlo mean and stderr of (U V U^dag)^{x2}."""
    n = G.n
    d = 1 << n
    if 2 * n > densesim.STATE_QUBIT_CAP:
        raise BudgetError(f"dense two-copy average needs 2n <= {densesim.STATE_QUBIT_CAP}")
    Vd = _as_dense_v(V, n)

    def one(stream):
        U = groups.sample_haar(G, stream)
        A = U @ Vd @ U.conj().T
        return np.kron(A, A)

    total, total_sq = rng.accumulate_moments(one, (d * d, d * d), M, seed)
    return rng.mean_and_stderr_from_sums(total, total_sq, M)


# ---------------------------------------------------------------------------
# second-moment traces


def mc_second_moment_trace(G: groups.GroupSpec, V, O, M: int, seed: int) -> MomentEstimate:
    """Estimate E_U Tr[(U V U^dag)^{x2} O] from M Haar samples.

    O may be a SwapRegionTag, in which case each sample reduces to the square
    of the region-restricted partial trace and only d x d matrices appear; a
    dense O of shape (d^2, d^2) forces the explicit Kronecker route and is
    budget-capped.
    """
    n = G.n
    Vd = _as_dense_v(V, n)
    if isinstance(O, SwapRegionTag):
        region = tuple(sorted(O.region))
        if not region or any(q < 0 or q >= n for q in region):
            raise ValidationError(f"bad region {O.region} for n={n}")

        def one(stream):
            U = groups.sample_haar(G, stream)
            A = U @ Vd @ U.conj().T
            Mred = densesim.partial_trace(A, region, n)
            return float(np.trace(Mred @ Mred).real)

    else:
        Od = np.asarray(O, dtype=np.complex128)
        d = 1 << n
        if Od.shape != (d * d, d * d):
            raise ValidationError(f"observable shape {Od.shape}, expected {(d * d, d * d)}")
        if n > densesim.TWO_COPY_OPERATOR_CAP:
            raise BudgetError(f"dense two-copy route capped at n <= {densesim.TWO_COPY_OPERATOR_CAP}")

        def one(stream):
            U = groups.sample_haar(G, stream)
            A = U @ Vd @ U.conj().T
            return float(np.trace(np.kron(A, A) @ Od).real)

    values = rng.sample_array(one, M, seed)
    return _estimate(values, seed)


# ---------------------------------------------------------------------------
# commutant basis from component structure


@dataclass(frozen=True, eq=False)
class QuadraticSymmetry:
    """Label (j, kappa) for one commutant basis element Q built from a
    component: Q = 1/(d sqrt(|C|)) sum_{T in C} T x (L_j T)."""

    j: int
    linear: pauli.PauliString
    kappa: int
    component: cgraph.ComponentSummary

    def dense(self) -> np.ndarray:
        n = self.component.n
        if n > densesim.TWO_COPY_OPERATOR_CAP:
            raise BudgetError(f"dense commutant basis capped at n <= {densesim.TWO_COPY_OPERATOR_CAP}")
        d = 1 << n
        out = np.zeros((d * d, d * d), dtype=np.complex128)
        for key in sorted(self.component.members):
            T = pauli.from_key(key, n)
            out += np.kron(pauli.to_dense(T), pauli.to_dense(pauli.multiply(self.linear, T)))
        return out / (d * np.sqrt(len(self.component.members)))


def quadratic_symmetry_basis(
    S: cgraph.GeneratorSet, linear_syms
) -> list[QuadraticSymmetry]:
    """One basis label per (linear symmetry, commutator-graph component).

    kappa records the Majorana weight of the component representative; for
    generator sets that do not preserve that grading it is only a name.
    """
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
    if collisions:
        logger.warning("degenerate commutant labels: %s", collisions)
    return {"gram": gram, "max_deviation": deviation, "collisions": collisions}


def commutant_overlap_estimates(
    G: groups.GroupSpec, P: pauli.PauliString, basis, M: int, seed: int
):
    """MC overlaps <Q, E (U P U^dag)^{x2}> for each commutant basis element."""
    n = G.n
    d = 1 << n
    Pd = pauli.to_dense(pauli.hermitian_representative(P))
    mats = [q.dense().conj().T for q in basis]

    def one(stream):
        U = groups.sample_haar(G, stream)
        A = U @ Pd @ U.conj().T
        AA = np.kron(A, A)
        return np.array([np.trace(Qh @ AA) for Qh in mats])

    total, total_sq = rng.accumulate_moments(one, (len(mats),), M, seed)
    return rng.mean_and_stderr_from_sums(total, total_sq, M)


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
    G: groups.GroupSpec, P: pauli.PauliString, M: int, seed: int
) -> SpreadReport:
    """Sampled mass table over component(P) plus the leaked mass.

    The last accumulated column is 1 minus the in-component total, which
    Parseval makes the exact off-component mass for unitary P.
    """
    if G.generator_set is None:
        raise ValidationError(f"kind {G.kind!r} has no generator set to spread over")
    n = G.n
    d = 1 << n
    comp = cgraph.component(P, G.generator_set)
    keys = tuple(sorted(comp.members))
    verts = [pauli.from_key(k, n) for k in keys]

    def one(stream):
        U = groups.sample_haar(G, stream)
        A = U @ pauli.to_dense(pauli.hermitian_representative(P)) @ U.conj().T
        masses = np.array([abs(pauli.trace_with(T, A) / d) ** 2 for T in verts])
        return np.append(masses, 1.0 - masses.sum())

    rows = rng.sample_array(one, M, seed)
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
    d = 1 << n
    bits = np.arange(d)
    parity = np.zeros(d, dtype=np.int64)
    m = bits.copy()
    while m.any():
        parity ^= m & 1
        m >>= 1
    return np.diag((parity == 0).astype(np.complex128))


def check_draw_cost(G: groups.GroupSpec, M: int, what: str) -> None:
    """Raise BudgetError when M dense Haar draws of G cost more than FS_COST_CAP.

    A draw costs d^3 complex multiply-adds, or n(2n-1) d^3 for a matchgate
    (one d x d product per Givens lift).
    """
    per_draw = float(G.dense_dimension) ** 3 * (G.n * (2 * G.n - 1) if G.kind == "matchgate" else 1)
    if M * per_draw > FS_COST_CAP:
        raise BudgetError(
            f"{what} for {G.kind} n={G.n} with {M} samples costs about "
            f"{M * per_draw:.2e} multiply-adds ({per_draw:.2e} per draw), cap is {FS_COST_CAP:.0e}"
        )


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
    Pi = np.eye(d, dtype=np.complex128) if subspace_projector is None else np.asarray(subspace_projector)
    if Pi.shape != (d, d):
        raise ValidationError(f"projector shape {Pi.shape} does not match d={d}")
    check_draw_cost(G, M, "Frobenius-Schur estimate")

    def one(stream):
        U = groups.sample_haar(G, stream)
        return float(np.trace(Pi @ U @ U).real)

    return _estimate(rng.sample_array(one, M, seed), seed)


def mixed_unitary_fs(d: int, M: int, seed: int) -> MomentEstimate:
    """Estimate E |Tr U^2|^2 over Haar unitaries; the exact value is 2."""
    if d < 2:
        raise ValidationError(f"need d >= 2, got {d}")

    def one(stream):
        U = groups.haar_unitary(d, stream)
        return abs(np.trace(U @ U)) ** 2

    return _estimate(rng.sample_array(one, M, seed), seed)


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

        def one(stream):
            return abs(np.trace(groups.haar_unitary(d, stream))) ** 4

        return _estimate(rng.sample_array(one, M, seed), seed)
    if source == "clifford_enumeration":
        if n is None:
            raise ValidationError("clifford_enumeration source needs n")
        values = np.array([abs(np.trace(U)) ** 4 for U in groups.enumerate_clifford(n)])
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
