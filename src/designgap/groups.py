"""Group specifications: invariant forms, generator sets, and samplers.

Supported kinds: matchgate, orthogonal, symplectic, unitary, mixed_unitary
and clifford.  A group is its kind, its qubit count and, for the
form-bearing kinds, an invariant bilinear form Omega, a phased Pauli, with
U^T Omega U = Omega for every group element; the form certifies the two-copy
invariant state (1 x Omega)|Phi>.  Pauli generator sets, which only the
commutator graphs, the spread estimator and the gate-count experiment read,
are built where they are read, by ``generator_set``.

Haar samplers: QR of Ginibre ensembles, with the Mezzadri phase fix
(math-ph/0609050), for the unitary and orthogonal groups; a Gram-Schmidt
construction compatible with the quaternionic structure T(v) = Omega conj(v)
for the compact symplectic group, which orthogonalizes each new column against
the matrix of all previous columns and their T-images in two block passes;
and, for the matchgate group, a Haar SO(2n) rotation decomposed into Givens
planes and lifted factor-by-factor through exp(theta/2 c_a c_b).  Lifts are
unique only up to a global sign, which no estimated quantity is sensitive to.
Every sampler has one body, and it takes a list of streams:
``sample_haar_stack`` is the one kind dispatch.  It draws each stream's
normals as a single draw would and orthogonalizes the whole stack at once
(unitary, orthogonal, symplectic), lifts one SO(2n) draw per stream
(matchgate) or draws one index per stream into the enumerated group
(Clifford), and checks the form once over the stack.  A single draw,
``sample_haar``, is the stack of one, so the two cannot diverge.

Shallow ensembles are brickwork circuits of 2-local group gates over a
declared adjacency; the conjugation lightcone follows the brickwork
schedule, layer class by layer class, so a gate joins the cone only in the
layers that apply it.  The dense kinds draw one layer's gates for a stack of
streams with ``_layer_gates``: each stream's Gaussians for the layer in one
call, in the order per-gate draws would take them, and every gate of the
stack orthogonalized in one stacked QR (one Gram-Schmidt per symplectic
form-qubit pair), in the group's field (``dense_field``): orthogonal gates
are real, and a symplectic layer is complex only when a form-qubit gate
joins it.  No d x d brickwork circuit is built: the depth experiments apply
only the gates that touch the perturbation's lightcone, on the cone's qubits
(``experiments``).  The form is a tensor product of letters up to a phase,
so a gate keeps it exactly when it keeps the letters on its own pair
(``local_forms``); ``check_local_forms`` checks every gate of a layer
against them in one stacked product.  Matchgate brickwork is sampled only as
Majorana rotations (below).  The form self-check of a Haar draw,
U^T Omega U = Omega, takes U^T Omega as a gather
(``BilinearForm.right_product``).
The constant matrices of the dense path (forms, the canonical J, qubit-swap
indices, small Majorana bilinears) are cached read-only.  The finite
Clifford group is enumerated by a breadth-first closure: each generator g
multiplies a block of a level's elements as one product g @ [f_0 | f_1 |
...], written into the block's (F, G, D, D) candidates.  Each candidate is
keyed by one exact integer, the signs of the real and imaginary parts of its
entries after its pivot's phase is divided out, and a block keeps the first
candidate of each key not seen before, in the order a one-at-a-time FIFO
closure would find them, writing it straight into the preallocated table of
the group's order.  The products are those of the one-at-a-time closure,
byte for byte, and the group is one read-only (N, D, D) array that the
Clifford samplers index once per stack.
Matchgates are 2-local only on Jordan-Wigner neighbors (i, i+1); brickwork
on any other edge is rejected.

Matchgates also have a free-fermion picture: a matchgate U acts on the
Majorana operators by a rotation R in SO(2n), U c_a U^dag = sum_b R[b, a] c_b.
``sample_haar_rotation_stack`` and ``sample_shallow_rotation_stack`` return
that rotation directly for a stack of streams, at O(n^2) memory per sample
instead of 2^n x 2^n, for Haar draws and for brickwork circuits on
Jordan-Wigner edges (each local gate on (i, i+1) acts on Majoranas
2i+1..2i+4).  The Haar stack is one stacked QR and one stacked det
(``haar_special_orthogonal`` on a list of streams); a brickwork stack lists
the gate sites of all its layers, draws each stream's factors for up to
``SHALLOW_GATES_PER_DRAW`` gates in one ``draw_factors`` call, builds all
their 4 x 4 rotations in one ``rotate_by_exponentials`` call, one factor
position at a time over the stack, and applies each run of gates on
disjoint qubits (a layer) as one batched (B, s, 4, 4) @ (B, s, 4, 2n)
product; ``check_rotation`` runs once over the stack.
Each row is the draw of its stream alone bit for bit.  The Haar
rotation is the SO(2n) draw that the dense ``sample_haar`` lifts, through
the shared ``haar_special_orthogonal``, so both pictures see the same group
element for the same stream; the dense matchgate draw stays for the moment
estimators, and the tests keep a dense per-gate brickwork reference that
reads its factors as ``draw_factors`` does.

Every product of exponentials takes its factors from ``draw_factors(choices,
count, streams)``: (B, count) arrays of indices and angles, row b bit for bit
the per-factor loop ``rng.integers(choices)``, ``2 pi rng.random()`` on
stream b.  They are decoded from one ``random_raw`` call per stream, three
Philox words per pair of factors: Lemire's (u32 * k) >> 32 on the low and
high 32-bit halves of the first word gives the two indices, as numpy's
buffered 32-bit draws do, and (w >> 11) 2^-53 of the other two words the
two angles.  A stream that enters holding a buffered half, a k outside
[2, 2^32), or a half that Lemire's method might reject puts the stream back
to its entry state and through the loop, and the last factor (odd count) or
last two (even count) are always drawn by the loop, so every stream ends
where the loop leaves it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import cgraph, densesim, pauli
from .errors import BudgetError, InvariantError, ValidationError

GROUP_KINDS = (
    "matchgate",
    "orthogonal",
    "symplectic",
    "unitary",
    "mixed_unitary",
    "clifford",
)

SYMPLECTIC_FORM_QUBIT = 1  # for n >= 2; n = 1 uses qubit 0
SAMPLER_SELF_CHECK_TOL = 1e-8
MATCHGATE_LOCAL_FACTORS = 12
# local gates whose factors the rotation sampler draws per call, which bounds
# its per-stream arrays at any depth
SHALLOW_GATES_PER_DRAW = 64
# Clifford closure elements that each generator multiplies in one product,
# and whose candidates are keyed at once.  A 4 x 1024 operand stays in cache
# and on one OpenBLAS thread, and a block's candidates and key temporaries
# take under 1 MB beside the 2.9 MB table: on a 2-core x86 machine the n = 2
# closure took 30 ms with a tracemalloc peak of 4.0 MB, against 27 ms and
# 6.4 MB in blocks of 1024
CLOSURE_BLOCK = 256


def _read_only(M: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only, so no caller can change it for the next."""
    M.setflags(write=False)
    return M


@functools.lru_cache(maxsize=None)
def _identity(d: int) -> np.ndarray:
    return _read_only(np.eye(d, dtype=np.complex128))


# ---------------------------------------------------------------------------
# bilinear forms


@dataclass(frozen=True, eq=False)
class BilinearForm:
    """An invariant bilinear form, a phased Pauli."""

    representation: pauli.PauliString
    symmetry: str  # "symmetric" | "antisymmetric"

    @property
    def n(self) -> int:
        return self.representation.n

    def dense(self) -> np.ndarray:
        """The form as a dense matrix, built once and read-only."""
        return self._dense

    @functools.cached_property
    def _dense(self) -> np.ndarray:
        return _read_only(pauli.to_dense(self.representation))

    def field_dense(self) -> np.ndarray:
        """The dense form as a real matrix when its entries are real (every
        shipped form but the matchgate one), else as ``dense()``; read-only."""
        return self._field_dense

    @functools.cached_property
    def _field_dense(self) -> np.ndarray:
        M = self.dense()
        return _read_only(M.real.copy()) if not np.any(M.imag) else M

    @functools.cached_property
    def right_product(self):
        """A -> A @ Omega: a column gather and a scale for a phased Pauli
        (``densesim.right_product``)."""
        return densesim.right_product(self.field_dense())


def bilinear_form(representation: pauli.PauliString) -> BilinearForm:
    """Wrap a phased Pauli, deriving its transposition symmetry."""
    if not isinstance(representation, pauli.PauliString):
        raise ValidationError(f"a bilinear form is a phased Pauli, got {type(representation).__name__}")
    sign = pauli.transpose_sign(representation)
    return BilinearForm(representation, "symmetric" if sign == 1 else "antisymmetric")


def matchgate_form_1(n: int) -> BilinearForm:
    """The alternating form XYXY... preserved by matchgate circuits."""
    return bilinear_form(pauli.from_text("XY" * (n // 2) + "X" * (n % 2)))


def orthogonal_form(n: int) -> BilinearForm:
    return bilinear_form(pauli.identity(n))


def symplectic_form_qubit(n: int) -> int:
    return SYMPLECTIC_FORM_QUBIT if n >= 2 else 0


def symplectic_form(n: int) -> BilinearForm:
    """The antisymmetric form i Y on the designated form qubit."""
    q = symplectic_form_qubit(n)
    rep = pauli.PauliString(n, 1 << q, 1 << q, 1)  # i times Y_q
    return bilinear_form(rep)


def pauli_form_condition(P: pauli.PauliString, form_pauli: pauli.PauliString) -> bool:
    """True iff P^T Omega + Omega P = 0 for the phaseless Pauli form.

    With P^T = (-1)^{#Y} P the condition says: even-Y generators must
    anticommute with the form word, odd-Y generators must commute.
    """
    comm = pauli.commutes(P, form_pauli)
    return comm if pauli.y_count(P) % 2 == 1 else not comm


# ---------------------------------------------------------------------------
# generator sets


def matchgate_standard_set(n: int) -> cgraph.GeneratorSet:
    """Single-qubit Z plus nearest-neighbor XX."""
    gens = [pauli.PauliString(n, 0, 1 << i) for i in range(n)]
    gens += [pauli.PauliString(n, 0b11 << i, 0) for i in range(n - 1)]
    return cgraph.GeneratorSet(n, tuple(gens))


def matchgate_full_set(n: int) -> cgraph.GeneratorSet:
    """All n(2n-1) Majorana bilinears c_a c_b with a < b, ordered by (a, b).

    The word of c_a c_b is the XOR of the words of c_a and c_b, taken with
    phase 0.
    """
    check_group_qubits(n)
    words = [(c.x_bits, c.z_bits) for c in (pauli.majorana(a, n) for a in range(1, 2 * n + 1))]
    gens = (pauli.PauliString(n, xa ^ xb, za ^ zb) for (xa, za), (xb, zb) in itertools.combinations(words, 2))
    return cgraph.GeneratorSet(n, tuple(gens))


def _chain_local_paulis(n: int) -> list[pauli.PauliString]:
    """All nontrivial Paulis supported on one site or a nearest-neighbor pair."""
    out = []
    for key in range(1, 4):
        for i in range(n):
            x = (key >> 1) << i
            z = (key & 1) << i
            out.append(pauli.PauliString(n, x, z))
    for a in range(1, 4):
        for b in range(1, 4):
            for i in range(n - 1):
                x = ((a >> 1) << i) | ((b >> 1) << (i + 1))
                z = ((a & 1) << i) | ((b & 1) << (i + 1))
                out.append(pauli.PauliString(n, x, z))
    return out


def generator_set(kind: str, n: int, which: str = "standard") -> cgraph.GeneratorSet:
    """The Pauli generator set ``which`` of a group kind, in the order that
    gate-count draws index by position.

    ``standard``: for matchgates single-qubit Z plus nearest-neighbor XX;
    for the other kinds the 1- and 2-local chain Paulis that generate their
    algebra: all of them for unitary and mixed_unitary, those with odd Y
    count (exp(i theta P) is then real) for orthogonal, and those satisfying
    the form condition for i Y_fq for symplectic.  ``full``: the matchgate
    group's n(2n-1) Majorana bilinears.
    """
    check_group_qubits(n)
    if which not in ("standard", "full"):
        raise ValidationError(f"unknown generator set {which!r}")
    if kind == "matchgate":
        return matchgate_full_set(n) if which == "full" else matchgate_standard_set(n)
    if which == "full":
        raise ValidationError(f"the full generator set applies to the matchgate group only, got {kind!r}")
    if kind not in ("orthogonal", "symplectic", "unitary", "mixed_unitary"):
        raise ValidationError(f"group {kind!r} has no commutator-graph generator set")
    gens = _chain_local_paulis(n)
    if kind == "orthogonal":
        gens = [g for g in gens if pauli.y_count(g) % 2 == 1]
    elif kind == "symplectic":
        word = pauli.hermitian_representative(symplectic_form(n).representation)
        gens = [g for g in gens if pauli_form_condition(g, word)]
    return cgraph.GeneratorSet(n, tuple(gens))


# ---------------------------------------------------------------------------
# adjacency and lightcones


@dataclass(frozen=True)
class Adjacency:
    """A spatial interaction graph with a deterministic brickwork schedule."""

    n: int
    edges: tuple[tuple[int, int], ...]
    layer_classes: tuple[tuple[tuple[int, int], ...], ...]
    name: str = "custom"


def check_matchgate_edges(adj: Adjacency) -> None:
    """Raise unless every edge is a Jordan-Wigner neighbor pair (i, i+1).

    A local XX on any other pair is not a Majorana bilinear, so a 2-local
    gate there is no matchgate.
    """
    for a, b in adj.edges:
        if b != a + 1:
            raise ValidationError(
                f"matchgates act only on Jordan-Wigner neighbors (i, i+1); "
                f"adjacency {adj.name!r} has edge ({a}, {b})"
            )


def _greedy_classes(edges, n):
    classes: list[list[tuple[int, int]]] = []
    for edge in edges:
        for cls in classes:
            if all(edge[0] not in e and edge[1] not in e for e in cls):
                cls.append(edge)
                break
        else:
            classes.append([edge])
    return tuple(tuple(cls) for cls in classes)


def chain_adjacency(n: int) -> Adjacency:
    edges = tuple((i, i + 1) for i in range(n - 1))
    even = tuple(e for e in edges if e[0] % 2 == 0)
    odd = tuple(e for e in edges if e[0] % 2 == 1)
    classes = tuple(c for c in (even, odd) if c)
    return Adjacency(n, edges, classes, "chain")


def grid_adjacency(rows: int, cols: int) -> Adjacency:
    def q(r, c):
        return r * cols + c

    horiz = [(q(r, c), q(r, c + 1)) for r in range(rows) for c in range(cols - 1)]
    vert = [(q(r, c), q(r + 1, c)) for r in range(rows - 1) for c in range(cols)]
    classes = [
        tuple(e for e in horiz if (e[0] % cols) % 2 == 0),
        tuple(e for e in horiz if (e[0] % cols) % 2 == 1),
        tuple(e for e in vert if (e[0] // cols) % 2 == 0),
        tuple(e for e in vert if (e[0] // cols) % 2 == 1),
    ]
    classes = tuple(c for c in classes if c)
    return Adjacency(rows * cols, tuple(horiz + vert), classes, f"grid {rows}x{cols}")


def parse_adjacency(spec, n: int) -> Adjacency:
    """Build an adjacency from "chain", "grid RxC", or an explicit edge list."""
    if isinstance(spec, Adjacency):
        if spec.n != n:
            raise ValidationError(f"adjacency has {spec.n} qubits, expected {n}")
        return spec
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text == "chain":
            return chain_adjacency(n)
        if text.startswith("grid"):
            try:
                rows, cols = (int(v) for v in text[4:].replace(" ", "").split("x"))
            except Exception as exc:
                raise ValidationError(f"bad grid spec {spec!r}, expected 'grid RxC'") from exc
            if rows < 1 or cols < 1 or rows * cols != n:
                raise ValidationError(f"grid {rows}x{cols} does not match n={n}")
            return grid_adjacency(rows, cols)
        raise ValidationError(f"unknown adjacency {spec!r}")
    edges = []
    for e in spec:
        a, b = int(e[0]), int(e[1])
        if not (0 <= a < n and 0 <= b < n and a != b):
            raise ValidationError(f"bad edge {e} for n={n}")
        edges.append((min(a, b), max(a, b)))
    edges = tuple(sorted(set(edges)))
    return Adjacency(n, edges, _greedy_classes(edges, n), "custom")


def lightcone(V_support, L: int, adjacency: Adjacency) -> tuple[int, ...]:
    """The qubits that U V U^dag can act on, for U a depth-L brickwork circuit.

    The layers act in the order the brickwork samplers draw them, the
    classes of ``adjacency.layer_classes`` in turn, and a layer's gate
    joins both its qubits to the cone when it touches the cone.  A full
    cycle of classes that adds no qubit ends the growth, so a depth of any
    size costs at most n + 1 cycles.
    """
    if L < 0:
        raise ValidationError(f"negative depth {L}")
    cone = set(V_support)
    classes = adjacency.layer_classes
    unchanged = 0  # layers in a row that added no qubit
    for layer_index in range(L if classes else 0):
        grown = False
        for a, b in classes[layer_index % len(classes)]:
            if (a in cone) != (b in cone):
                cone.update((a, b))
                grown = True
        unchanged = 0 if grown else unchanged + 1
        if unchanged == len(classes):
            break
    return tuple(sorted(cone))


# ---------------------------------------------------------------------------
# group specifications


@dataclass(frozen=True, eq=False)
class GroupSpec:
    """A named group on n qubits with its optional invariant form."""

    kind: str
    n: int
    form: BilinearForm | None = None

    @property
    def dense_dimension(self) -> int:
        return 1 << self.n

    def __post_init__(self):
        if self.kind not in GROUP_KINDS:
            raise ValidationError(f"unknown group kind {self.kind!r}")
        if self.n < 1:
            raise ValidationError(f"need n >= 1, got {self.n}")


def check_group_qubits(n: int) -> None:
    """Refuse n outside 1..KEY_QUBIT_CAP before a group or its generators are built.

    No group needs a Pauli word of more than n bits, but some runs do work
    that grows with n before their cost budget is checked: at n = 10^6 a
    matchgate depth run, which takes its lightcone and the Majorana indices
    of its perturbation before its budget, was still setting up after 25 s,
    and an ``fs-indicator`` run of the mixed-unitary group raised a
    ValueError converting its budget's d^3 to text.  Until every run
    budgets its set-up, groups stop at the commutator graphs' int64 keys.
    """
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    if n > cgraph.KEY_QUBIT_CAP:
        raise BudgetError(
            f"groups are built up to n <= {cgraph.KEY_QUBIT_CAP} qubits, since some runs do set-up work "
            f"that grows with n before their cost budget; got n={n}"
        )


def group_spec(kind: str, n: int) -> GroupSpec:
    """Construct a GroupSpec with the shipped form of each kind."""
    check_group_qubits(n)
    if kind == "matchgate":
        return GroupSpec(kind, n, matchgate_form_1(n))
    if kind == "orthogonal":
        return GroupSpec(kind, n, orthogonal_form(n))
    if kind == "symplectic":
        return GroupSpec(kind, n, symplectic_form(n))
    if kind in ("unitary", "mixed_unitary"):
        return GroupSpec(kind, n)
    if kind == "clifford":
        if n > 2:
            raise BudgetError(f"clifford enumeration capped at n=2, got n={n}")
        return GroupSpec(kind, n)
    raise ValidationError(f"unknown group kind {kind!r}")


# ---------------------------------------------------------------------------
# Haar samplers


def _unitary_from_ginibre(Z: np.ndarray) -> np.ndarray:
    """Q of Z = QR with the phase fix Q diag(R_ii/|R_ii|), per matrix of a stack."""
    Q, R = np.linalg.qr(Z)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (diag / np.abs(diag))[..., None, :]


def _orthogonal_from_ginibre(Z: np.ndarray) -> np.ndarray:
    """Q of real Z = QR with the sign fix Q diag(sign R_ii), per matrix of a stack, real."""
    Q, R = np.linalg.qr(Z)
    return Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[..., None, :]


def _normals(streams, shape) -> np.ndarray:
    """Each stream's normals of the given shape, in one call per stream, stacked."""
    if len(streams) == 1:  # a view, not np.stack's copy: single draws stay as cheap as before
        return streams[0].normal(size=shape)[None]
    return np.stack([stream.normal(size=shape) for stream in streams])


def haar_unitary_stack(d: int, streams) -> np.ndarray:
    """One Haar U(d) per stream, stacked: QR of complex Ginibre matrices with phase fix.

    Each stream gives the real then the imaginary part of its d x d draw.
    """
    Z = _normals(streams, (2, d, d))
    return _unitary_from_ginibre(Z[:, 0] + 1j * Z[:, 1])


def haar_orthogonal_stack(d: int, streams) -> np.ndarray:
    """One Haar O(d) per stream, stacked and real: QR of real Ginibre matrices with sign fix."""
    return _orthogonal_from_ginibre(_normals(streams, (d, d)))


def haar_special_orthogonal(d: int, streams) -> np.ndarray:
    """One Haar SO(d) per stream, stacked: an O(d) draw with its last column
    negated on negative det, from one QR and one det over the stack.

    ``sample_haar_rotation_stack`` draws its stacks here, and ``haar_matchgate``
    lifts the stack of one.
    """
    Q = haar_orthogonal_stack(d, streams)
    flip = np.linalg.det(Q) < 0
    Q[flip, :, -1] = -Q[flip, :, -1]
    return Q


@functools.lru_cache(maxsize=None)
def _canonical_symplectic_j(d: int) -> np.ndarray:
    iy = np.array([[0.0, 1.0], [-1.0, 0.0]])
    return _read_only(np.kron(iy, np.eye(d // 2)).astype(np.complex128))


def _symplectic_columns(Z: np.ndarray) -> np.ndarray:
    """The canonical-form symplectic unitaries built from Gaussian draws Z.

    Z has shape (B, d/2, 2, d): per draw, the real and imaginary parts of one
    complex Gaussian column per row, in stream order.  Each column is
    orthogonalized against the pool of previous columns and their images
    under the antilinear map T(v) = J conj(v), in two block passes
    v -= P^T (conj(P) v) over the pool matrix P, then normalized; the second
    block of columns is -T of the first.  Equivariance of T under left
    multiplication by symplectic unitaries makes the law left-invariant,
    hence Haar.  Every step is a per-draw matrix-vector product over the
    stack, and the norm is sqrt(re.re + im.im) by matmul, so each draw of a
    stack is bit for bit the draw made alone.
    """
    B, half, _, d = Z.shape
    J = _canonical_symplectic_j(d)
    pool = np.empty((B, d, d), dtype=np.complex128)  # rows u_0, T u_0, u_1, T u_1, ...
    pool_t = pool.transpose(0, 2, 1)
    columns = (Z[:, :, 0] + 1j * Z[:, :, 1])[..., None]
    for j in range(half):
        v = columns[:, j]
        P, PT = pool[:, : 2 * j], pool_t[:, :, : 2 * j]
        Pc = P.conj()
        for _ in range(2):  # two passes for numerical orthogonality
            v = v - PT @ (Pc @ v)
        re, im = v.real, v.imag
        u = v / np.sqrt(re.transpose(0, 2, 1) @ re + im.transpose(0, 2, 1) @ im)
        pool[:, 2 * j] = u[..., 0]
        pool[:, 2 * j + 1] = (J @ u.conj())[..., 0]
    return np.concatenate([pool_t[:, :, 0::2], -pool_t[:, :, 1::2]], axis=2)


@functools.lru_cache(maxsize=None)
def _qubit_swap_index(a: int, b: int, n: int) -> np.ndarray:
    """Basis index map exchanging qubits a and b (an involution), read-only."""
    idx = np.arange(1 << n, dtype=np.int64)
    pa, pb = n - 1 - a, n - 1 - b
    flip = ((idx >> pa) ^ (idx >> pb)) & 1
    return _read_only(idx ^ (flip << pa) ^ (flip << pb))


def _swap_qubits(U: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    """P U P for the permutation P exchanging qubits a and b, as one gather per matrix of a stack."""
    s = _qubit_swap_index(a, b, n)
    return U[..., s[:, None], s]


def haar_symplectic(n: int, streams) -> np.ndarray:
    """One Haar element of the compact symplectic group for the shipped form
    per stream, stacked; ``sample_haar_stack`` draws its symplectic stacks here."""
    U = _symplectic_columns(_normals(streams, (1 << (n - 1), 2, 1 << n)))
    fq = symplectic_form_qubit(n)
    return U if fq == 0 else _swap_qubits(U, 0, fq, n)


@functools.lru_cache(maxsize=None)
def _majorana_bilinear(n: int, a: int, b: int) -> pauli.PauliString:
    return pauli.majorana_product((a, b), n)


# dense bilinears are cached up to this n, where all n(2n-1) of them take 4 MB;
# above it the d^3 product of the lifts dominates the cost of building them
LIFT_CACHE_QUBITS = 6


@functools.lru_cache(maxsize=None)
def _majorana_bilinear_dense(n: int, a: int, b: int) -> np.ndarray:
    return _read_only(pauli.to_dense(_majorana_bilinear(n, a, b)))


def _lift_rotation(a: int, b: int, theta: float, n: int) -> np.ndarray:
    """Dense exp(theta/2 c_a c_b); conjugation rotates the (a, b) plane."""
    if n <= LIFT_CACHE_QUBITS:
        eye, cab = _identity(1 << n), _majorana_bilinear_dense(n, a, b)
    else:
        eye, cab = np.eye(1 << n, dtype=np.complex128), pauli.to_dense(_majorana_bilinear(n, a, b))
    return math.cos(theta / 2) * eye + math.sin(theta / 2) * cab


def givens_decompose(R: np.ndarray) -> list[tuple[int, int, float]]:
    """Plane rotations (a, b, theta) composing to R in SO(m).

    Each factor G(a, b, theta) maps e_a to cos(theta) e_a - sin(theta) e_b and
    e_b to sin(theta) e_a + cos(theta) e_b.  The factors compose right to
    left: for a returned list [t_1, ..., t_k], R = G(t_k) ... G(t_1).
    """
    M = np.array(R, dtype=np.float64)
    m = M.shape[0]
    applied = []
    for j in range(m - 1):
        for i in range(m - 1, j, -1):
            if abs(M[i, j]) < 1e-15:
                continue
            theta = math.atan2(M[i, j], M[i - 1, j])
            c, s = math.cos(theta), math.sin(theta)
            upper = c * M[i - 1] + s * M[i]
            lower = -s * M[i - 1] + c * M[i]
            M[i - 1], M[i] = upper, lower
            applied.append((i - 1, i, theta))
    if not np.allclose(M, np.eye(m), atol=1e-9):
        raise ValidationError("Givens decomposition expects a special orthogonal input")
    return [(a, b, -theta) for a, b, theta in reversed(applied)]


def haar_matchgate(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar matchgate unitary via an SO(2n) draw lifted plane by plane.

    Composing the lifts in the same right-to-left order as the rotations
    makes the adjoint action on Majorana coordinates reproduce R exactly, so
    Haar measure on SO(2n) pushes forward to the projective group.
    """
    R = haar_special_orthogonal(2 * n, [rng])[0]
    U = np.eye(1 << n, dtype=np.complex128)
    for a, b, theta in givens_decompose(R):
        U = _lift_rotation(a + 1, b + 1, theta, n) @ U
    return U


def _clifford_keys(stack: np.ndarray) -> np.ndarray:
    """One exact uint64 key per projective Clifford in a (N, D, D) stack, D <= 4.

    A Clifford's nonzero entries share one magnitude and differ in phase by
    powers of i, up to a global phase (Dehaene & De Moor, PRA 68, 042318).
    Times the conjugate of its pivot, its first nonzero entry, each entry is
    0 or a positive real times 1, i, -1 or -i, so the signs of its real and
    imaginary parts, 2 bits each, fix it; 4 bits per entry, D^2 entries.
    """
    flat = stack.reshape(len(stack), -1)
    pivot = flat[np.arange(len(flat)), np.argmax(np.abs(flat) > 1e-8, axis=1)]
    normalized = flat * pivot.conj()[:, None]
    codes = np.zeros(flat.shape, dtype=np.uint8)
    for bit, part in enumerate((normalized.real, normalized.imag)):
        codes |= (part > 1e-8).view(np.uint8) << (2 * bit)
        codes |= (part < -1e-8).view(np.uint8) << (2 * bit + 1)
    # entry k at bits 4k..4k+3 of a little-endian word
    packed = np.zeros((len(flat), 8), dtype=np.uint8)
    packed[:, : flat.shape[1] // 2] = codes[:, 0::2] | (codes[:, 1::2] << 4)
    return packed.view("<u8").ravel()


CLIFFORD_ORDERS = {1: 24, 2: 11520}  # projective Cliffords |C_n / U(1)|


@functools.lru_cache(maxsize=2)
def enumerate_clifford(n: int) -> np.ndarray:
    """All projective n-qubit Cliffords (24 at n=1, 11520 at n=2) by closure,
    as one read-only (N, 2^n, 2^n) array in the order a FIFO closure finds them.

    Each generator multiplies a ``CLOSURE_BLOCK`` of a level at a time, and
    the block's candidates are keyed by ``_clifford_keys`` at once: a stable
    argsort keeps each key's first candidate, a searchsorted against the
    sorted keys seen so far (earlier levels and earlier blocks) drops the
    rest, and the fresh elements are written straight into the preallocated
    table, whose rows of the current level are the next level's frontier.
    InvariantError is raised if the closure does not reach exactly the
    group's order.
    """
    if n not in CLIFFORD_ORDERS:
        raise BudgetError(f"clifford enumeration supports n=1,2 only, got {n}")
    H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2)
    S = np.diag([1.0, 1.0j]).astype(np.complex128)
    gens = []
    for q in range(n):
        gens.append(densesim.embed(H, (q,), n))
        gens.append(densesim.embed(S, (q,), n))
    if n == 2:
        gens.append(np.diag([1.0, 1.0, 1.0, -1.0]).astype(np.complex128))  # CZ

    D, order = 1 << n, CLIFFORD_ORDERS[n]
    table = np.empty((order, D, D), dtype=np.complex128)
    table[0] = np.eye(D)
    seen = _clifford_keys(table[:1])
    level, size = slice(0, 1), 1
    while level.start < level.stop:
        for lo in range(level.start, level.stop, CLOSURE_BLOCK):
            block = table[lo : min(lo + CLOSURE_BLOCK, level.stop)]
            # [f_0 | f_1 | ...]: each generator multiplies the block in one product
            wide = block.transpose(1, 0, 2).reshape(D, len(block) * D)
            candidates = np.empty((len(block), len(gens), D, D), dtype=np.complex128)
            for g, gen in enumerate(gens):
                candidates[:, g] = (gen @ wide).reshape(D, len(block), D).transpose(1, 0, 2)
            # current-major and generator-minor: the FIFO order
            candidates = candidates.reshape(-1, D, D)
            keys = _clifford_keys(candidates)
            ranked = np.argsort(keys, kind="stable")
            first = np.ones(ranked.size, dtype=bool)
            np.not_equal(keys[ranked[1:]], keys[ranked[:-1]], out=first[1:])
            first = ranked[first]
            at = np.minimum(np.searchsorted(seen, keys[first]), seen.size - 1)
            fresh = np.sort(first[seen[at] != keys[first]])
            if size + fresh.size > order:
                raise InvariantError(f"the {n}-qubit Clifford closure exceeds {order} elements")
            table[size : size + fresh.size] = candidates[fresh]
            size += fresh.size
            seen = np.sort(np.concatenate([seen, keys[fresh]]))
        level = slice(level.stop, size)
    if size != order:
        raise InvariantError(f"the {n}-qubit Clifford closure has {size} elements, not {order}")
    table.setflags(write=False)
    return table


def _check_form(G: GroupSpec, U: np.ndarray, what: str) -> None:
    """Raise InvariantError when a draw, or any draw of a stack, leaves the form.

    U^T Omega is a gather for a phased-Pauli form, so the check is one
    product per draw, in the draws' own field.
    """
    D = G.form.right_product(np.swapaxes(U, -1, -2)) @ U
    D -= G.form.field_dense()
    drift = float(np.max(np.abs(D)))
    if drift > SAMPLER_SELF_CHECK_TOL:
        raise InvariantError(f"{what} drifted off the form by {drift:.2e}")


def dense_field(kind: str) -> type:
    """The dtype of a kind's dense draws and circuits: float64 for the
    orthogonal group, whose QR draws are real, complex128 for every other."""
    return np.float64 if kind == "orthogonal" else np.complex128


def _check_dense_sampling(G: GroupSpec) -> None:
    if G.n > pauli.DENSE_QUBIT_CAP:
        raise BudgetError(f"dense sampling for n={G.n} exceeds cap {pauli.DENSE_QUBIT_CAP}")


def sample_haar_stack(G: GroupSpec, streams) -> np.ndarray:
    """One Haar draw per stream, stacked to shape (len(streams), d, d).

    Unitary, orthogonal and symplectic stacks take each stream's normals in
    one call, orthogonalize the whole stack in one QR or one Gram-Schmidt;
    a matchgate stack lifts one SO(2n) draw per stream (``haar_matchgate``)
    and a Clifford stack draws one index per stream and takes the rows from
    the enumerated group in one fancy index.  The form self-check runs once
    over the stack.  Every row is what the stack of one would give for its
    stream, bit for bit.
    """
    d = G.dense_dimension
    _check_dense_sampling(G)
    if G.kind in ("unitary", "mixed_unitary"):
        return haar_unitary_stack(d, streams)
    if G.kind == "orthogonal":
        return haar_orthogonal_stack(d, streams)
    if G.kind == "clifford":
        table = enumerate_clifford(G.n)
        return table[[int(stream.integers(len(table))) for stream in streams]]
    if G.kind == "symplectic":
        U = haar_symplectic(G.n, streams)
    elif G.kind == "matchgate":
        U = np.stack([haar_matchgate(G.n, stream) for stream in streams])
    else:
        raise ValidationError(f"no Haar sampler for kind {G.kind!r}")
    if G.form is not None:
        _check_form(G, U, f"{G.kind} sampler")
    return U


def sample_haar(G: GroupSpec, rng: np.random.Generator) -> np.ndarray:
    """One Haar draw from the group, self-checked: the stack of one of ``sample_haar_stack``."""
    return sample_haar_stack(G, [rng])[0]


# ---------------------------------------------------------------------------
# shallow brickwork ensembles


_LOCAL_MATCHGATE_GENS = ("ZI", "IZ", "XX", "XY", "YX", "YY")


def draw_factors(choices: int, count: int, streams) -> tuple[np.ndarray, np.ndarray]:
    """count draws of (generator index, angle) per stream for products of
    exp(i theta P), as (len(streams), count) int64 indices and float64 angles.

    Every product-of-exponentials sampler takes its factors from here.
    Row b is what the per-factor loop ``g = rng.integers(choices)``,
    ``theta = 2 pi rng.random()`` would draw from ``streams[b]``, bit for bit,
    and each stream is left where that loop leaves it; the angle is
    ``rng.uniform(0, 2 pi)`` bit for bit (numpy draws it as 0 + 2 pi u from
    the same double u).

    The loop's draws are decoded from raw Philox words instead, one
    ``random_raw`` call per stream.  ``integers(k)`` for 2 <= k < 2^32 takes
    a 32-bit half of a word by Lemire's method, ``(u32 * k) >> 32``, the low
    half first and the high half from the generator's ``has_uint32`` buffer
    on the next call; ``random()`` takes a whole word w as (w >> 11) 2^-53.
    So each pair of factors reads three words: the first word's two halves
    give both indices and the other two words both angles.  A stream is
    drawn by the loop instead when it enters with a buffered half, when k is
    outside [2, 2^32), or when some (u32 * k) mod 2^32 < k, the only case in
    which Lemire's method may reject a half and draw again; such a stream is
    first put back to the state it entered with.  The last factor (odd
    count) or the last two (even count) are always drawn by the loop, so the
    buffered half ends where the loop leaves it.
    """
    g = np.empty((len(streams), count), dtype=np.int64)
    theta = np.empty((len(streams), count), dtype=np.float64)
    head = count - (count % 2 or min(count, 2))
    decoded = set()
    if head and 2 <= choices < 1 << 32:
        states = [rng.bit_generator.state for rng in streams]
        fresh = np.array([b for b, state in enumerate(states) if not state["has_uint32"]], dtype=np.int64)
        if fresh.size:
            words = np.array([streams[b].bit_generator.random_raw(3 * head // 2) for b in fresh])
            words = words.reshape(fresh.size, head // 2, 3)
            halves = np.stack((words[:, :, 0] & 0xFFFFFFFF, words[:, :, 0] >> 32), axis=-1)
            m = halves * np.uint64(choices)
            exact = np.all((m & 0xFFFFFFFF) >= choices, axis=(1, 2))
            g[fresh[exact], :head] = (m[exact] >> 32).reshape(-1, head)
            theta[fresh[exact], :head] = 2.0 * math.pi * ((words[exact, :, 1:] >> 11) * 2.0**-53).reshape(-1, head)
            for b in fresh[~exact].tolist():
                streams[b].bit_generator.state = states[b]
            decoded = set(fresh[exact].tolist())
    for b, rng in enumerate(streams):
        for j in range(head if b in decoded else 0, count):
            g[b, j] = rng.integers(choices)
            theta[b, j] = 2.0 * math.pi * rng.random()
    return g, theta


def _layer_gates(kind: str, cls, n: int, streams) -> np.ndarray:
    """The 2-local gates of one brickwork layer per stream, shape (len(streams), len(cls), 4, 4).

    Orthogonal, symplectic and unitary layers draw each stream's Gaussians for
    the layer in one call, in the order per-gate draws would take them, and
    orthogonalize every gate of the stack with one stacked QR.  A symplectic
    gate on the form qubit reads its 16 normals as the two complex columns of
    a canonical draw, one Gram-Schmidt over the stack per such pair, and an
    orthogonal gate reads them as a 4 x 4 matrix.  Orthogonal gates are real;
    a symplectic layer is complex when a form-qubit gate joins it and real
    otherwise.  Clifford gates draw their indices one stream at a time and
    take the gates from the enumerated group in one fancy index.
    """
    g = len(cls)
    if kind == "orthogonal":
        return _orthogonal_from_ginibre(_normals(streams, (g, 4, 4)))
    if kind in ("unitary", "mixed_unitary"):
        Z = _normals(streams, (g, 2, 4, 4))
        return _unitary_from_ginibre(Z[:, :, 0] + 1j * Z[:, :, 1])
    if kind == "symplectic":
        Z = _normals(streams, (g, 4, 4))
        gates = _orthogonal_from_ginibre(Z)
        fq = symplectic_form_qubit(n)
        if any(fq in pair for pair in cls):
            gates = gates.astype(np.complex128)
        for i, pair in enumerate(cls):
            if fq in pair:
                local = _symplectic_columns(Z[:, i].reshape(-1, 2, 2, 4))
                gates[:, i] = local if pair.index(fq) == 0 else _swap_qubits(local, 0, 1, 2)
        return gates
    if kind == "clifford":
        table = enumerate_clifford(2)
        index = [[int(rng.integers(len(table))) for _ in cls] for rng in streams]
        return table[np.array(index, dtype=np.intp).reshape(len(streams), g)]
    raise ValidationError(f"no 2-local gate factory for kind {kind!r}")


# the real 2 x 2 letters of a form: I, X, Z and i Y, indexed by (x bit, z bit)
_REAL_LETTERS = {
    (0, 0): np.eye(2),
    (1, 0): np.array([[0.0, 1.0], [1.0, 0.0]]),
    (0, 1): np.array([[1.0, 0.0], [0.0, -1.0]]),
    (1, 1): np.array([[0.0, 1.0], [-1.0, 0.0]]),
}


_EYE4 = _read_only(np.eye(4))


def local_forms(form: BilinearForm, pairs) -> np.ndarray | None:
    """The form's letters on each pair (a, b) as a real (len(pairs), 4, 4)
    stack, a's letter the left factor, or None when every letter is I.

    A phased-Pauli form is a phase times the tensor product of its letters,
    and with i Y for Y every letter is real, so a gate g on (a, b) keeps the
    whole form exactly when g^T F g = F for its pair's F; None stands for
    identities, whose check needs no product by F.
    """
    x, z = form.representation.x_bits, form.representation.z_bits
    letters = [[(x >> q & 1, z >> q & 1) for q in pair] for pair in pairs]
    if not any(any(letter) for pair in letters for letter in pair):
        return None
    return np.stack([np.kron(_REAL_LETTERS[a], _REAL_LETTERS[b]) for a, b in letters])


def check_local_forms(gates: np.ndarray, forms: np.ndarray | None, what: str) -> None:
    """Raise InvariantError when any gate of a (B, g, 4, 4) stack leaves the
    form of its pair: max |g^T F g - F| > SAMPLER_SELF_CHECK_TOL, with the
    (g, 4, 4) ``forms`` of ``local_forms`` (None for identities)."""
    FG = gates if forms is None else forms @ gates
    D = np.swapaxes(gates, -1, -2) @ FG
    D -= _EYE4 if forms is None else forms
    drift = float(np.max(np.abs(D))) if D.size else 0.0
    if drift > SAMPLER_SELF_CHECK_TOL:
        raise InvariantError(f"{what} drifted off the form by {drift:.2e}")


# ---------------------------------------------------------------------------
# matchgates as Majorana rotations


def bilinear_plane(P: pauli.PauliString) -> tuple[int, int, int]:
    """(a, b, sigma), 0-based a < b, with the Hermitian word of P equal to
    sigma * i * c_{a+1} c_{b+1}.

    Then exp(i theta P) = exp(-sigma theta c_{a+1} c_{b+1}), whose conjugation
    rotates the Majoranas by G(a, b, -2 sigma theta) in the convention of
    ``givens_decompose``.

    Read from the letters by the Jordan-Wigner rule.  c_{a+1} c_{b+1} is
    X Y = i Z on one qubit q when a = 2q and b = a + 1.  Otherwise, with q < r
    the qubits of a and b, the Z strings below q cancel, Z fills q < j < r,
    r carries b's letter (X for even b, Y for odd), and a's letter meets the
    Z of b's string on q: X Z = -i Y for even a, Y Z = i X for odd a.  So
    sigma = +1 exactly when the word runs from a Y on q to r.
    """
    x, z = P.x_bits, P.z_bits
    support = x | z
    if support:
        q, r = (support & -support).bit_length() - 1, support.bit_length() - 1
        x_q, z_q, x_r, z_r = x >> q & 1, z >> q & 1, x >> r & 1, z >> r & 1
        if q == r and (x_q, z_q) == (0, 1):
            return 2 * q, 2 * q + 1, -1
        inner = (1 << r) - (2 << q)  # the qubits strictly between q and r
        if q < r and x_q and x_r and x & inner == 0 and z & inner == inner:
            # Y on q (z_q = 1): even a; X: odd a.  X on r (z_r = 0): even b; Y: odd b
            return 2 * q + 1 - z_q, 2 * r + z_r, 1 if z_q else -1
    raise ValidationError(f"{pauli.to_text(P)} is not a Majorana bilinear")


def rotate_by_exponentials(planes, g: np.ndarray, theta: np.ndarray, m: int, R: np.ndarray | None = None) -> np.ndarray:
    """The m x m Majorana rotations of exp(i t_1 P_{g_1}) exp(i t_2 P_{g_2}) ...,
    one per row of g and theta, stacked to shape (len(g), m, m).

    Given a stack R, the rotations multiply it from the left in place and R
    is returned, so a long product can be built a window of factors at a
    time, its rows updated in the order of one call.

    Row r of the (B, k) arrays g (generator indices) and theta (angles) holds
    one product's factors in operator-product order, and ``planes[g]`` is
    ``bilinear_plane(P_g)``.  The product's rotation is G_1 G_2 ... G_k, so
    rows are updated from the right end, one factor position at a time over
    the whole stack: rows a and b of every matrix are gathered, rotated and
    put back, addressed as rows of the (B m, m) view of the stack.  cos and
    sin are taken from ``math`` per factor (numpy's vector cos may differ
    from libm in the last bit), and every entry takes the products and the
    sum of the one-matrix row update, so each matrix is the same bits
    whatever the stack.
    """
    if R is None:
        R = np.tile(np.eye(m), (len(g), 1, 1))
    if not R.flags.c_contiguous:
        raise ValidationError("rotations are updated in place, so the stack must be C-contiguous")
    rows = R.reshape(len(g) * m, m)  # a view: every matrix's rows
    table = np.array(planes, dtype=np.int64)
    first = np.arange(0, len(g) * m, m)[:, None]
    a, b = (first + table[g, 0]).T.copy(), (first + table[g, 1]).T.copy()
    angles = (2.0 * theta).ravel().tolist()
    cos = np.fromiter(map(math.cos, angles), dtype=np.float64, count=len(angles)).reshape(g.shape)
    sin = table[g, 2] * np.fromiter(map(math.sin, angles), dtype=np.float64, count=len(angles)).reshape(g.shape)
    cos, sin = cos.T[:, :, None], sin.T[:, :, None]
    for j in reversed(range(g.shape[1])):
        c, s = cos[j], sin[j]
        ra, rb = rows[a[j]], rows[b[j]]
        rows[a[j]] = c * ra - s * rb
        rows[b[j]] = s * ra + c * rb
    return R


@functools.lru_cache(maxsize=None)
def _local_matchgate_planes() -> tuple[tuple[int, int, int], ...]:
    # a local generator on qubits (i, i+1) is the same bilinear of Majoranas
    # 2i+1..2i+4 for every i: the Jordan-Wigner Z strings cancel
    return tuple(bilinear_plane(pauli.from_text(g)) for g in _LOCAL_MATCHGATE_GENS)


def check_rotation(R: np.ndarray, what: str) -> None:
    """Raise InvariantError unless R^T R = I to SAMPLER_SELF_CHECK_TOL, for R
    or every matrix of a stack."""
    drift = float(np.max(np.abs(np.swapaxes(R, -1, -2) @ R - np.eye(R.shape[-1]))))
    if drift > SAMPLER_SELF_CHECK_TOL:
        raise InvariantError(f"{what} rotation is not orthogonal: max|R^T R - I| = {drift:.2e}")


def sample_haar_rotation_stack(G: GroupSpec, streams) -> np.ndarray:
    """The Majorana rotations of ``sample_haar(G, stream)`` per stream, stacked.

    They are the Haar SO(2n) draws that ``haar_matchgate`` lifts, checked
    once over the stack.
    """
    if G.kind != "matchgate":
        raise ValidationError(f"Majorana rotations need the matchgate group, got {G.kind!r}")
    R = haar_special_orthogonal(2 * G.n, streams)
    check_rotation(R, "matchgate Haar")
    return R


def sample_shallow_rotation_stack(G: GroupSpec, L: int, adjacency, streams) -> np.ndarray:
    """The Majorana rotations of one depth-L brickwork matchgate circuit per
    stream, stacked.

    Needs the matchgate group and an adjacency whose edges are all (i, i+1).
    Each local gate is the product of ``MATCHGATE_LOCAL_FACTORS``
    exponentials of the six local bilinears.  The gate sites of all L
    layers are listed first; then each stream's factors for up to
    ``SHALLOW_GATES_PER_DRAW`` consecutive gates are drawn in one
    ``draw_factors`` call, in the per-gate order of a dense circuit; gate j
    of the window reads columns 12j..12j+11.  All 4 x 4 rotations of a
    window are built in one ``rotate_by_exponentials`` call over the
    (B * w, 12) factors.  A gate on (i, i+1) acts on rows 2i..2i+3, so the
    gates of a layer touch disjoint rows and commute: each run of
    consecutive gates on disjoint qubits (a layer, or the part of one in a
    window) is applied as one row gather, one batched
    (B, s, 4, 4) @ (B, s, 4, 2n) product and one scatter.  Each 4 x 4 block
    takes the one-gate product, so the rows are those of one gate at a
    time.  The check runs once over the stack.
    """
    if G.kind != "matchgate":
        raise ValidationError(f"Majorana rotations need the matchgate group, got {G.kind!r}")
    if L < 0:
        raise ValidationError(f"negative depth {L}")
    adj = parse_adjacency(adjacency, G.n)
    check_matchgate_edges(adj)
    planes, k = _local_matchgate_planes(), MATCHGATE_LOCAL_FACTORS
    classes = adj.layer_classes
    sites = [i for layer in range(L) if classes for i, _ in classes[layer % len(classes)]]
    B = len(streams)
    R = np.tile(np.eye(2 * G.n), (B, 1, 1))
    for lo in range(0, len(sites), SHALLOW_GATES_PER_DRAW):
        window = sites[lo : lo + SHALLOW_GATES_PER_DRAW]
        w = len(window)
        g, theta = draw_factors(len(planes), k * w, streams)
        gates = rotate_by_exponentials(planes, g.reshape(B * w, k), theta.reshape(B * w, k), 4).reshape(B, w, 4, 4)
        for start, stop in _disjoint_runs(window):
            rows = 2 * np.array(window[start:stop])[:, None] + np.arange(4)
            R[:, rows] = gates[:, start:stop] @ R[:, rows]
    check_rotation(R, f"shallow {G.kind}")
    return R


def _disjoint_runs(sites) -> list[tuple[int, int]]:
    """(start, stop) of the maximal runs of consecutive gates on (i, i+1), i in
    sites, that share no qubit."""
    runs, start, used = [], 0, set()
    for j, i in enumerate(sites):
        if i in used or i + 1 in used:
            runs.append((start, j))
            start, used = j, set()
        used.update((i, i + 1))
    return runs + [(start, len(sites))]
