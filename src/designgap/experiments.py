"""Two-copy channel discrimination experiments against shallow ensembles.

Three experiments share one shape: prepare a perturbed invariant state,
evolve both copies by the same sampled circuit, measure a fixed projective
POVM, and compare the retained probability between a depth- or gate-limited
ensemble and the full group Haar measure.  Twice the probability gap lower
bounds the diamond distance between the two-copy channels, so these runs turn
Monte Carlo estimates into quantitative design-failure certificates.

A shallow sample whose conjugation lightcone stays inside the measured region
must retain probability 1 exactly; the runners assert that per sample rather
than on average, so a miscoded ensemble fails loudly instead of washing out.

Matchgate samples are evaluated on their Majorana rotation R in SO(2n)
(U c_a U^dag = sum_b R[b, a] c_b), with no 2^n factor.  The other kinds
evaluate the shallow side on the perturbation's lightcone and the Haar side
on d x d draws (below).  Conjugating c_K, K the Majorana indices of the
perturbation, gives sum_S det(R[S, K]) c_S over |S| = k, so
the retained probability is sum_{S in T} det(R[S, K])^2 over a fixed set T
of weight-k monomials: those of the perturbation's component inside the
region (depth), or its N-ball (gate count).  A block is one stacked det of
its (B, |T|, k, k) minors.  Two inputs keep a closed form, chosen from the
input alone, and need no commutator-graph search: a prefix region 0..m-1,
which holds exactly the Majoranas 1..2m, so C(2m, k) of the component's
C(2n, k) monomials; and a gate set whose planes cover all n(2n - 1) Majorana
pairs, whose N-ball is the whole Johnson ball of
``bounds.johnson_ball_size(n, N, k)`` monomials.  Any other region or set
takes T and the analytic ratio from one component search; a gate set's
search runs up to ``pauli.DENSE_QUBIT_CAP`` qubits, and a ball it finds of
the Johnson size still takes the closed form.  The Majorana indices of T's
monomials are read from the vertex keys' bits at once, Jordan-Wigner
inverted in closed form (``pauli.majorana_bits``).  The gate-count
experiment draws its gates from the ensemble's ``allowed`` generator set,
which ``gatecount_config`` fills with the full bilinear set by default.

Every evaluation is a pair of chunk evaluators (``Evaluators``), each
mapping a block of streams to their probabilities, and one runner draws the
shallow side on streams [0, M) and the Haar side on [M, 2M) through
``rng.sample_rows``.  The dense brickwork experiments (depth and mixed
unitary) evaluate a whole block at once.  A depth-L brickwork U conjugates
V only inside its schedule-aware lightcone C, U V U^dag =
(U_C V U_C^dag) x I, so the retained probability, sum_{Q in region}
|c_Q|^2 over the Pauli coefficients of U V U^dag, depends only on the
|C|-qubit circuit.  The shallow side draws every layer's gates for the
block, as a full circuit would, checks each gate against the form's letters
on its pair, and applies only the gates that touch the growing cone, as
A <- g A g^dag on the 2^|C| x 2^|C| restriction of V, with no d x d
product.  Both sides read the Born probability of the complement Bell
measurement on the evolved invariant state, which for every group member
is p = ||Tr_{R^c}(U V U^dag)||^2 / (d_R d_{R^c}^2).  The Haar side draws
a stack with ``groups.sample_haar_stack`` and takes U V as a gather of V's
phased permutation, one d x d product by U^dag per sample and the partial
trace over the region's complement; an orthogonal run is real from its
draws to p.  The rotation evaluators stack Majorana
rotations: ``groups.sample_shallow_rotation_stack``, the stacked N-gate
sequences (drawn and applied a window of factors at a time) or
``groups.sample_haar_rotation_stack`` draws a block, and one stacked
evaluation takes it.  Each pair declares the bytes that one sample holds in
stacked intermediates at once, so a block stays within ``rng.STACK_BYTES``.
Each block's probabilities are then finalized at once, as array
operations: the shallow-exactness check and the clamp to [0, 1]; a
non-finite p raises ``InvariantError`` rather than clamping to 0.  Only the
shot of shot mode, which each sample draws from its own stream after p,
runs one sample at a time, in per-side closures of each experiment that
``rng.sample_rows`` calls in stream order.  Each stacked row is the
single-sample value bit for bit, so the output bytes are those of a
one-sample-at-a-time loop.  Matchgate runs draw no d x d matrix, so only
the dense kinds stop at ``DENSE_HAAR_QUBIT_CAP``; a matchgate region that
is not a prefix stops at ``REGION_SEARCH_QUBIT_CAP`` for its search.
Before its first draw a dense brickwork run estimates its cost: the d x d
products of its Haar side (the draw, its form self-check and one conjugation
product, real ones at a measured share of a complex one), and on the
shallow side each gate drawn and checked and each cone update; a rotation
run estimates it in 2n x 2n products (a gate of a sequence in one two-row
rotation, a brickwork gate in one 4 x 2n block product) plus k^3 per
minor, the per-stream work of each factor, and per block the numpy
dispatch of each factor position and of each run of disjoint brickwork
gates.  Either exits 2 above
``moments.FS_COST_CAP``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from . import bounds, cgraph, densesim, groups, moments, pauli, rng
from .errors import BudgetError, InvariantError, ValidationError

SHALLOW_EXACTNESS_TOL = 1e-9
SHALLOW_FAILURE_TOL = 1e-6
# stacked intermediates alive at once per sample at the peak of a block's
# evaluation, as tracemalloc measures it: on the dense brickwork path up to
# 5.6 d x d matrices of the kind's field (``groups.dense_field``: real for
# orthogonal runs), reached by the unitary Haar draw (its normals, the
# complex Ginibre matrix, its QR and the phase-fixed Q); the orthogonal and
# symplectic Haar sides hold up to 4.6 and 4.5 (their conjugation and partial
# trace, after the draw, at most 3), and the shallow side, whose
# cone operators are 2^|C| x 2^|C| with |C| <= n, up to 1.1 (a cone of
# n - 1 qubits), at n = 4 to 8.  Up to 6.8 2n x 2n real matrices on the rotation
# path (Ginibre draw, its QR, the complex and real Q, the rotation stack),
# to which the general rotation evaluator adds its minors
DENSE_LIVE_STACKS = 6
ROTATION_LIVE_STACKS = 7
# numpy dispatch of one factor position of ``groups.rotate_by_exponentials``
# over a block, in multiply-adds taking the same time (see
# ``moments.SAMPLE_FIXED_COST``): 16.5 to 48 us per position for blocks of
# 1 to 64 streams on a 2-core x86 machine; a gather, 4 x 4 product and
# scatter of a run of brickwork gates costs about as much (17.5 us for a
# block of 64 streams at n = 4)
FACTOR_DISPATCH_COST = 40_000
# one factor of a brickwork gate for one stream, inside a window's call:
# its math.cos and math.sin and its 4-wide row update, 0.22 us on that
# machine (a 12-position call over 64 streams x 64 gates took 10.8 ms).  A
# gate of a gate-count sequence is one such factor on two rows of R and is
# charged it plus 8n: 192-gate sequences took 0.36, 0.53 and 0.87 us per
# gate and stream at n = 4, 16 and 30 beyond their 9-10 us per position
# and block, which ``FACTOR_DISPATCH_COST`` charges at twice that
LOCAL_FACTOR_COST = 500
# a real d x d product or QR is charged 1 / REAL_PRODUCT_RATIO of a complex
# one: on one OpenBLAS thread of a 2-core x86 machine a stacked float64
# product took 1/6.2 to 1/2.3 of the complex128 one's time at d = 8 to 256,
# and a float64 QR 1/2.7 to 1/1.4 (the larger shares at d <= 16, where the
# per-sample fixed cost dominates a draw)
REAL_PRODUCT_RATIO = 2
# one brickwork gate of the cone evaluator for one stream, besides its cone
# update: its normals, its share of the layer's stacked QR (or symplectic
# Gram-Schmidt) and form check, and the numpy dispatch of its update.  On
# that machine, at depth 200 in blocks of 64 streams, this took 3.8 us per
# gate (orthogonal, n = 2) to 15.5 us (symplectic, n = 4; 27 us in blocks
# of 8), or 10 us at the cap's rate of 2e9 multiply-adds per second
LOCAL_GATE_COST = 20_000
# a cone update, A <- g A g^dag on 2^|C| x 2^|C|, is two (4 x 4) @
# (4 x 4^|C| / 4) products, 8 4^|C| multiply-adds, and the copies that move
# the gate's axes to the front; at |C| = 8 in blocks of 8 streams a complex
# update took 531 us per stream, the time of 16 4^|C| multiply-adds at the
# cap's rate, and a real one 258 us
CONE_UPDATE_COST = 16
# the Haar side of a dense brickwork run draws and conjugates d x d stacks;
# it keeps the n <= 8 that the two-copy state of 2n qubits had, until that
# side is an exact count
DENSE_HAAR_QUBIT_CAP = 8
# a depth region that is not a prefix takes its monomials from a component
# search and lists them in Python: at most C(16, 8) = 12870 at n = 8, the
# bound these runs had when they built two-copy states; at n = 12 the default
# perturbation's component alone has 2.5e6 vertices
REGION_SEARCH_QUBIT_CAP = 8


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """The limited ensemble under test: layered brickwork or a gate budget."""

    kind: str  # "brickwork" | "gate_count"
    depth: int | None = None
    adjacency: object = "chain"
    gates: int | None = None
    allowed: cgraph.GeneratorSet | None = None

    def __post_init__(self):
        if self.kind == "brickwork":
            if self.depth is None or self.depth < 0:
                raise ValidationError(f"brickwork ensembles need depth >= 0, got {self.depth}")
        elif self.kind == "gate_count":
            if self.gates is None or self.gates < 0:
                raise ValidationError(f"gate-count ensembles need gates >= 0, got {self.gates}")
        else:
            raise ValidationError(f"unknown ensemble kind {self.kind!r}")


def brickwork(depth: int, adjacency="chain") -> EnsembleSpec:
    return EnsembleSpec("brickwork", depth=depth, adjacency=adjacency)


def gate_count(gates: int, allowed: cgraph.GeneratorSet | None = None) -> EnsembleSpec:
    return EnsembleSpec("gate_count", gates=gates, allowed=allowed)


@dataclass(frozen=True, eq=False)
class ExperimentConfig:
    """Geometry and sampling plan for one discrimination run."""

    group: groups.GroupSpec
    n: int
    perturbation: pauli.PauliString
    region: tuple[int, ...]
    ensemble: EnsembleSpec
    samples: int
    seed: int
    shot_mode: bool = False

    def __post_init__(self):
        if self.n != self.group.n:
            raise ValidationError(f"config n={self.n} does not match group n={self.group.n}")
        if self.perturbation.n != self.n:
            raise ValidationError("perturbation acts on the wrong number of qubits")
        region = tuple(sorted(set(self.region)))
        object.__setattr__(self, "region", region)
        if any(q < 0 or q >= self.n for q in region):
            raise ValidationError(f"region {region} is not a subset of 0..{self.n - 1}")
        if self.ensemble.kind == "brickwork":
            # the POVM geometry only matters for the region-based experiments
            if not set(pauli.support(self.perturbation)) <= set(region):
                raise ValidationError("perturbation support must lie inside the region")
            if len(region) == self.n:
                raise ValidationError("region complement must be nonempty")
        if self.samples < 1:
            raise ValidationError(f"need at least one sample, got {self.samples}")


@dataclass(frozen=True, eq=False)
class ExperimentResult:
    """Estimated retention probabilities and the implied diamond bound."""

    p_shallow: moments.MomentEstimate
    p_haar: moments.MomentEstimate
    mc_bound: float
    analytic_bound: float | None
    analytic_reference: str | None
    config: ExperimentConfig
    shallow_max_deviation: float
    lightcone_confined: bool


# ---------------------------------------------------------------------------
# geometry defaults


def default_perturbation(kind: str, n: int) -> pauli.PauliString:
    """The paper-of-record site choices: mid-chain X for matchgates, else Z0."""
    if kind == "matchgate":
        if n < 2 or n % 2:
            raise ValidationError(f"mid-chain perturbation needs even n >= 2, got {n}")
        return pauli.PauliString(n, 1 << (n // 2 - 1), 0)
    return pauli.PauliString(n, 0, 1)


def default_region(n: int) -> tuple[int, ...]:
    return tuple(range(n - 1))


def default_depth(kind: str, n: int) -> int:
    return n // 2 - 1 if kind == "matchgate" else max(0, n - 2)


def depth_config(
    kind: str,
    n: int,
    samples: int,
    seed: int,
    depth: int | None = None,
    region=None,
    perturbation: pauli.PauliString | None = None,
    adjacency="chain",
    shot_mode: bool = False,
) -> ExperimentConfig:
    """A depth-experiment configuration with the shipped defaults filled in."""
    G = groups.group_spec(kind, n)
    V = perturbation if perturbation is not None else default_perturbation(kind, n)
    reg = tuple(region) if region is not None else default_region(n)
    L = depth if depth is not None else default_depth(kind, n)
    return ExperimentConfig(G, n, V, reg, brickwork(L, adjacency), samples, seed, shot_mode)


def gatecount_perturbation(n: int) -> pauli.PauliString:
    """A Pauli of Majorana weight n: the paper's worst-spread starting point."""
    if n % 2:
        return pauli.PauliString(n, 1 << ((n - 1) // 2), 0)
    return pauli.PauliString(n, 0, (1 << (n // 2)) - 1)


def gatecount_config(
    n: int,
    samples: int,
    seed: int,
    gates: int = 1,
    perturbation: pauli.PauliString | None = None,
    allowed: cgraph.GeneratorSet | None = None,
    shot_mode: bool = False,
) -> ExperimentConfig:
    """Matchgate gate-count configuration over the full bilinear generator set."""
    S = allowed if allowed is not None else groups.matchgate_full_set(n)
    G = groups.group_spec("matchgate", n)
    V = perturbation if perturbation is not None else gatecount_perturbation(n)
    region = tuple(range(n))  # the gate-count POVM does not use a region
    return ExperimentConfig(G, n, V, region, gate_count(gates, S), samples, seed, shot_mode)


# ---------------------------------------------------------------------------
# shared machinery


def _finalize(p: np.ndarray) -> np.ndarray:
    """A block's retained probabilities clamped to [0, 1].

    A non-finite probability is a broken invariant, not a value to clamp.
    """
    bad = ~np.isfinite(p)
    if bad.any():
        raise InvariantError(f"a sample retained probability {float(p[bad][0])!r}; the evaluation is broken")
    # max(0.0, p) and then min(1.0, .) as the comparisons pick them, so -0.0 becomes 0.0
    clamped = np.where(p > 0.0, p, 0.0)
    return np.where(clamped < 1.0, clamped, 1.0)


def _observe(p: float, stream, shot_mode: bool) -> float:
    """What one sample reports: its finalized p or, in shot mode, one shot
    drawn from the sample's own stream after p."""
    return float(stream.random() < p) if shot_mode else p


def _shallow_row(row, stream, shot_mode: bool) -> tuple[float, float]:
    """One shallow sample's (finalized p, deviation) as (observed p, deviation)."""
    p, dev = row
    return _observe(p, stream, shot_mode), dev


def _check_shallow_exactness(p: np.ndarray, confined: bool) -> np.ndarray:
    """The deviations |p - 1| of confined shallow samples (0 for unconfined ones)."""
    p = np.asarray(p, dtype=np.float64)
    if not confined:
        return np.zeros_like(p)
    dev = np.abs(p - 1.0)
    if np.any(dev > SHALLOW_FAILURE_TOL):
        raise InvariantError(
            f"confined shallow sample retained probability {float(p[dev > SHALLOW_FAILURE_TOL][0])!r}; "
            "the lightcone bookkeeping or the ensemble is wrong"
        )
    return dev


class Evaluators(NamedTuple):
    """The chunk evaluators of one experiment path.

    ``shallow`` and ``haar`` map a block of streams to their retained
    probabilities; ``row_bytes`` is what one sample of a block holds at
    once in stacked intermediates (0 for evaluators that take their streams
    one at a time), so that a block stays within ``rng.STACK_BYTES``.
    """

    shallow: Callable
    haar: Callable
    row_bytes: int


def _run_two_sided(config, evaluators: Evaluators, shallow_one, haar_one, confined, analytic, ref) -> ExperimentResult:
    """Shallow samples use stream indices [0, M); Haar samples [M, 2M).

    The evaluators map each block of streams to their probabilities, which
    are checked and clamped a block at once: a shallow row is the finalized
    p and its deviation from exact retention, a Haar row the finalized p.
    shallow_one and haar_one, closures of the calling experiment, then take
    each row and the sample's own stream, one sample at a time, for the
    shot of shot mode (``_shallow_row``, ``_observe``).
    """
    M = config.samples
    row_bytes = evaluators.row_bytes

    def shallow_rows(streams):
        p = np.asarray(evaluators.shallow(streams), dtype=np.float64)
        dev = _check_shallow_exactness(p, confined)
        return np.column_stack((_finalize(p), dev))

    def haar_rows(streams):
        return _finalize(np.asarray(evaluators.haar(streams), dtype=np.float64))

    rows = rng.sample_rows(shallow_rows, M, config.seed, 0, row_bytes, shallow_one)
    p_sh = moments.MomentEstimate(*rng.mean_and_stderr(rows[:, 0]), M, config.seed)
    max_dev = float(np.max(rows[:, 1]))
    vals = rng.sample_rows(haar_rows, M, config.seed, M, row_bytes, haar_one)
    p_ha = moments.MomentEstimate(*rng.mean_and_stderr(vals), M, config.seed)
    mc = bounds.discrimination_bound(
        min(1.0, max(0.0, p_sh.mean)), min(1.0, max(0.0, p_ha.mean))
    )
    return ExperimentResult(p_sh, p_ha, mc, analytic, ref, config, max_dev, confined)


# ---------------------------------------------------------------------------
# brickwork experiments: invariant form (depth) and conjugate copy (mixed unitary)


def _depth_analytic(config: ExperimentConfig, conjugate: bool = False):
    G = config.group
    n, d = config.n, 1 << config.n
    d_L = 1 << len(config.region)
    V = config.perturbation
    single_z = V.x_bits == 0 and V.z_bits.bit_count() == 1
    if conjugate:
        if not single_z:
            return None, None
        return float(bounds.mixed_unitary_bound(d, d_L)), "depth-bound/mixed-unitary"
    if not single_z:
        return None, None
    if G.kind == "orthogonal":
        p = bounds.exact_haar_povm_probability("orthogonal", d, d_L)
        return float(bounds.discrimination_bound(Fraction(1), p)), "depth-bound/orthogonal"
    if G.kind == "symplectic":
        fq = groups.symplectic_form_qubit(n)
        v_qubit = V.z_bits.bit_length() - 1
        if v_qubit == fq or fq not in config.region:
            return None, None
        p = bounds.exact_haar_povm_probability("symplectic", d, d_L)
        return float(bounds.discrimination_bound(Fraction(1), p)), "depth-bound/symplectic"
    return None, None


def _brickwork_gates(adj: groups.Adjacency, L: int) -> int:
    """The number of local gates in L brickwork layers, without looping over the layers."""
    classes = adj.layer_classes
    if not classes:
        return 0
    cycles, rest = divmod(L, len(classes))
    return cycles * sum(map(len, classes)) + sum(map(len, classes[:rest]))


def _cone_schedule(support, L: int, adj: groups.Adjacency):
    """The gates that the cone evaluator applies: those of L brickwork layers
    that touch the growing lightcone of ``support``, as indices into each
    layer's class.

    Returns (growing, final): ``growing[layer]`` for the first layers, and
    ``final[c]`` for every later layer of class c.  Once a full cycle of
    classes adds no qubit the cone is final and each class applies the same
    gates from then on, so ``growing`` spans at most n + 1 cycles, at any
    depth.
    """
    classes, cone = adj.layer_classes, set(support)
    growing, unchanged = [], 0
    for layer in range(L if classes else 0):
        if unchanged == len(classes):
            break
        before = len(cone)
        applied = []
        for k, (a, b) in enumerate(classes[layer % len(classes)]):
            if a in cone or b in cone:
                cone.update((a, b))
                applied.append(k)
        growing.append(tuple(applied))
        unchanged = 0 if len(cone) > before else unchanged + 1
    final = [tuple(k for k, (a, b) in enumerate(cls) if a in cone or b in cone) for cls in classes]
    return growing, final


def _cone_gates(support, L: int, adj: groups.Adjacency) -> int:
    """The number of gates the cone evaluator applies, the layers after the
    cone is final counted in closed form."""
    growing, final = _cone_schedule(support, L, adj)
    if not final:
        return 0
    start = len(growing)
    cycles, rest = divmod(L - start, len(final))
    return (
        sum(map(len, growing))
        + cycles * sum(map(len, final))
        + sum(len(final[(start + k) % len(final)]) for k in range(rest))
    )


def _check_brickwork_cost(config: ExperimentConfig, adj: groups.Adjacency, cone: tuple[int, ...]) -> None:
    """Raise BudgetError when a dense brickwork run costs more than moments.FS_COST_CAP.

    The Haar side pays, in d x d products of d^3 multiply-adds, its draw
    (``moments.draw_products``), the form self-check of a symplectic
    Gram-Schmidt draw (a QR orthogonal draw is orthogonal by construction)
    and the one product of its conjugation (U V) U^dag, U V being a
    gather; an orthogonal run's products are real, and are
    charged 1 / ``REAL_PRODUCT_RATIO`` = 1/2 of a complex one (on one
    OpenBLAS thread a real d x d product took 1/6.2 to 1/2.3 of a complex
    one's time at d = 8 to 256, and a real QR 1/2.7 to 1/1.4).  The shallow
    side pays ``LOCAL_GATE_COST`` for each gate it draws and checks, and for
    each gate that touches the lightcone ``cone`` ``CONE_UPDATE_COST``
    4^|C|, halved like a real product for an orthogonal run.  It pays no
    d x d product: no circuit is built.  The estimate is exact integer
    arithmetic, so no depth or sample count overflows it, and it is checked
    before the first draw.
    """
    G, L = config.group, config.ensemble.depth
    d3 = G.dense_dimension**3
    product, update = d3, CONE_UPDATE_COST * 4 ** len(cone)
    if groups.dense_field(G.kind) is np.float64:
        product, update = product // REAL_PRODUCT_RATIO, update // REAL_PRODUCT_RATIO
    costs = {
        "Haar draws": moments.draw_products(G) * product,
        "conjugations": product,
        "shallow circuits": _brickwork_gates(adj, L) * LOCAL_GATE_COST,
        "cone updates": _cone_gates(pauli.support(config.perturbation), L, adj) * update,
    }
    if G.kind == "symplectic":
        costs["form self-checks"] = d3
    moments.check_cost(f"dense brickwork experiment for {G.kind} n={G.n}", config.samples, costs)


def _check_rotation_cost(config: ExperimentConfig, experiment: str, gates: int, minors: int = 0) -> None:
    """Raise BudgetError when a rotation-path run costs more than moments.FS_COST_CAP.

    Each sample pays, in 2n x 2n products of (2n)^3 multiply-adds, the QR of
    its Haar draw and the evaluation of both sides.  No gate is a 2n x 2n
    product.  A gate of a gate sequence is one two-row rotation of R, 8n
    multiply-adds, plus ``LOCAL_FACTOR_COST`` for its cos and sin.  A
    brickwork gate is its 4 rows of R times its 4 x 4 rotation,
    (4 x 4) @ (4 x 2n), 32n multiply-adds.  The general evaluator adds k^3
    per k x k minor det on each side, ``minors`` of them.  Each block of the
    shallow side, one per 64-sample chunk, pays ``FACTOR_DISPATCH_COST`` per
    numpy dispatch.  A gate sequence dispatches one factor position per
    gate.  A brickwork circuit dispatches ``MATCHGATE_LOCAL_FACTORS``
    positions per window of up to ``SHALLOW_GATES_PER_DRAW`` gates, and one
    gather, product and scatter per run of gates on disjoint qubits; a
    layer's gates are disjoint, so a run ends only where a window or a layer
    does, and a circuit of L layers has at most windows + L - 1 runs.  Its
    samples also pay ``LOCAL_FACTOR_COST`` per factor of each gate.  Checked before the
    first draw, in exact integers, with no listing of the gates.
    """
    m3 = (2 * config.n) ** 3
    brickwork = config.ensemble.kind == "brickwork"
    costs = {
        "Haar draws": m3,
        "shallow circuits": gates * (32 * config.n if brickwork else 8 * config.n + LOCAL_FACTOR_COST),
        "evaluations": 2 * m3,
    }
    if minors:
        costs["minor dets"] = 2 * minors * pauli.majorana_count(config.perturbation) ** 3
    positions = gates
    if brickwork:
        costs["local gate factors"] = gates * groups.MATCHGATE_LOCAL_FACTORS * LOCAL_FACTOR_COST
        windows = -(-gates // groups.SHALLOW_GATES_PER_DRAW)
        runs = windows + config.ensemble.depth - 1 if gates else 0
        positions = windows * groups.MATCHGATE_LOCAL_FACTORS + runs
    blocks = -(-config.samples // rng.CHUNK_SIZE)
    moments.check_cost(
        f"matchgate {experiment} experiment on Majorana rotations for n={config.n}",
        config.samples,
        costs,
        {"factor dispatch": blocks * positions * FACTOR_DISPATCH_COST},
    )


def _dense_row_bytes(n: int, kind: str) -> int:
    """Bytes per sample of the dense brickwork stacks alive at once, in the kind's field."""
    return DENSE_LIVE_STACKS * (np.dtype(groups.dense_field(kind)).itemsize << (2 * n))


def _rotation_row_bytes(n: int) -> int:
    """Bytes per sample of the rotation-path stacks alive at once."""
    return ROTATION_LIVE_STACKS * np.dtype(np.float64).itemsize * (2 * n) ** 2


# ---------------------------------------------------------------------------
# Majorana-rotation evaluation: sum_{S in T} det(R[S, K])^2


def _majorana_indices(P: pauli.PauliString) -> np.ndarray:
    """The 0-based Majorana indices K of P's monomial."""
    return np.array(pauli.majorana_decomposition(P), dtype=np.int64) - 1


def _monomial_table(keys: np.ndarray, n: int, k: int) -> np.ndarray:
    """The (|keys|, k) table of the sorted 0-based Majorana indices of each
    key's monomial, read from the key bits by ``pauli.majorana_bits``: bit q
    of a is index 2q and bit q of b index 2q + 1."""
    a, b = pauli.majorana_bits(keys >> n, keys & ((1 << n) - 1), n)
    bits = (np.stack((a, b), axis=-1)[:, None, :] >> np.arange(n)[:, None]) & 1
    rows, cols = np.nonzero(bits.reshape(keys.size, 2 * n))
    if np.any(np.bincount(rows, minlength=keys.size) != k):
        raise InvariantError(f"a monomial of the evaluated set does not have Majorana weight {k}")
    return cols.reshape(keys.size, k)


def _minor_mass(R: np.ndarray, T: np.ndarray, K: np.ndarray) -> np.ndarray:
    """sum over the rows S of T of det(R[S, K])^2 per rotation of a block: one
    stacked det of the (B, |T|, k, k) minors, squares added left to right."""
    dets = np.linalg.det(R[:, T[:, :, None], K])
    mass = np.zeros(len(R))
    for d in dets.T:
        mass = mass + d * d
    return mass


def _prefix_mass(R: np.ndarray, inside: int, K: np.ndarray) -> np.ndarray:
    """The minor mass over every monomial of the first ``inside`` Majoranas:
    det(R[in, K]^T R[in, K]) by Cauchy-Binet."""
    B = R[:, :inside, K]
    return np.linalg.det(np.swapaxes(B, -1, -2) @ B)


def _johnson_ball_mass(R: np.ndarray, K: np.ndarray, N: int) -> np.ndarray:
    """The minor mass over the Johnson N-ball of K: every S with |S \\ K| <= N.

    By Cauchy-Binet sum_S det(R[S, K])^2 t^{|S \\ K|} is det(M + t (I - M))
    with M = R[K, K]^T R[K, K], so the ball mass is the t^0..t^N part of
    prod_i (lambda_i + t (1 - lambda_i)).  The eigenvalues come from one
    stacked eigvalsh, and the product and the sum of its coefficients run
    over the block in the one-sample order.
    """
    A = R[:, K[:, None], K]
    lams = np.linalg.eigvalsh(np.swapaxes(A, -1, -2) @ A)
    coeffs = np.zeros((len(R), N + 1))  # t^0..t^N of the running product
    coeffs[:, 0] = 1.0
    for lam in lams.T[:, :, None]:
        lower = np.zeros_like(coeffs)
        lower[:, 1:] = coeffs[:, :-1]
        coeffs = lam * coeffs + (1.0 - lam) * lower
    mass = np.zeros(len(R))
    for c in coeffs.T:  # left to right, as the per-sample reference adds them
        mass = mass + c
    return mass


def _rotation_evaluators(
    config: ExperimentConfig, experiment: str, gates: int, draw_shallow, closed_form, keys=None, K=None
) -> Evaluators:
    """Chunk evaluators of the minor mass on the Majorana rotations of a block.

    ``closed_form`` (rotations to masses) serves when given; otherwise the
    mass is summed over the monomials of ``keys``, whose minors of the
    columns K the budget and the row bytes count.
    """
    row_bytes = _rotation_row_bytes(config.n)
    if closed_form is not None:
        _check_rotation_cost(config, experiment, gates)
        mass = closed_form
    else:
        _check_rotation_cost(config, experiment, gates, keys.size)
        T = _monomial_table(keys, config.n, K.size)
        row_bytes += np.dtype(np.float64).itemsize * keys.size * (K.size**2 + 1)  # the minors and their dets
        mass = functools.partial(_minor_mass, T=T, K=K)

    def shallow_p(streams):
        return mass(draw_shallow(streams))

    def haar_p(streams):
        return mass(groups.sample_haar_rotation_stack(config.group, streams))

    return Evaluators(shallow_p, haar_p, row_bytes)


def _cone_operator(V: pauli.PauliString, order) -> np.ndarray:
    """V on the cone qubits ``order``, the first the left factor, as a dense
    matrix, real when its entries are."""
    x = sum((V.x_bits >> q & 1) << k for k, q in enumerate(order))
    z = sum((V.z_bits >> q & 1) << k for k, q in enumerate(order))
    A = pauli.to_dense(pauli.PauliString(len(order), x, z))
    return A if np.any(A.imag) else A.real.copy()


@functools.lru_cache(maxsize=None)
def _front_axes(ndim: int, a: int, b: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The transposition of an ndim-axis array that moves axes a and b to
    positions 1 and 2, the rest in order, and its inverse."""
    order = (0, a, b, *(k for k in range(1, ndim) if k not in (a, b)))
    return order, tuple(np.argsort(order).tolist())


def _conjugate_on_axes(A: np.ndarray, g: np.ndarray, i: int, j: int) -> np.ndarray:
    """g A g^dag for a stack A of operators on c qubits, shaped (B, 2, ..., 2)
    with axes 1..c its rows and c+1..2c its columns, and a (B, 4, 4) stack g
    on qubit axes i and j (i the left factor).

    Each side moves its two axes to the front and takes one batched
    (4 x 4) @ (4 x 4^c / 4) product: g on the rows, conj(g) on the columns.
    """
    c = (A.ndim - 1) // 2
    for a, b, op in ((1 + i, 1 + j, g), (1 + c + i, 1 + c + j, g.conj() if np.iscomplexobj(g) else g)):
        order, inverse = _front_axes(A.ndim, a, b)
        moved = A.transpose(order)
        A = (op @ moved.reshape(len(A), 4, -1)).reshape(moved.shape).transpose(inverse)
    return A


def _retained(M: np.ndarray, d_in: int, d_out: int) -> np.ndarray:
    """The retained probabilities ||M||^2 / (d_in d_out^2) of a block of
    reductions M = Tr_out A, d_in and d_out the dimensions kept and traced."""
    return np.sum(np.abs(M) ** 2, axis=(-2, -1)) / (d_in * d_out * d_out)


def _shallow_cone(config: ExperimentConfig, adj: groups.Adjacency, cone: tuple[int, ...]):
    """The chunk evaluator of the shallow side on the lightcone ``cone``.

    A depth-L brickwork U conjugates V only inside its schedule-aware cone
    C, so U V U^dag = (U_C V U_C^dag) x I, and the retained probability,
    sum_{Q in region} |c_Q|^2 over the Pauli coefficients, depends only on
    A = U_C V U_C^dag.  Every layer's gates are drawn for the block with
    ``groups._layer_gates``, as a full circuit would draw them, so each
    stream ends where that draw leaves it, and each gate is checked against
    the form's letters on its pair, one stacked product per layer.  Only the
    gates that touch the growing cone (``_cone_schedule``) are applied, as
    A <- g A g^dag on the 2^|C| x 2^|C| restriction of V
    (``_conjugate_on_axes``), in the run's field.  The cone's axes put the
    region's qubits first, so that p = ||Tr_{C \\ R} A||^2 /
    (d_{C in R} d_{C \\ R}^2) takes a reshape and one trace.  Each row is
    the block of one bit for bit.
    """
    G, n, L, V = config.group, config.n, config.ensemble.depth, config.perturbation
    inside = [q for q in cone if q in config.region]
    order = inside + [q for q in cone if q not in config.region]
    axis = {q: k for k, q in enumerate(order)}
    d_in, d_out = 1 << len(inside), 1 << (len(order) - len(inside))
    A0 = _cone_operator(V, order).reshape((2,) * (2 * len(order)))
    classes = adj.layer_classes
    forms = [groups.local_forms(G.form, cls) for cls in classes] if G.form is not None else None
    growing, final = _cone_schedule(pauli.support(V), L, adj)

    def shallow_p(streams):
        A = np.broadcast_to(A0, (len(streams), *A0.shape))
        for layer in range(L if classes else 0):
            c = layer % len(classes)
            gates = groups._layer_gates(G.kind, classes[c], n, streams)
            if forms is not None:
                groups.check_local_forms(gates, forms[c], f"shallow {G.kind} gate")
            for k in growing[layer] if layer < len(growing) else final[c]:
                a, b = classes[c][k]
                A = _conjugate_on_axes(A, gates[:, k], axis[a], axis[b])
        return _retained(np.einsum("bixjx->bij", A.reshape(len(streams), d_in, d_out, d_in, d_out)), d_in, d_out)

    return shallow_p


def _depth_dense(config: ExperimentConfig, adj: groups.Adjacency, cone: tuple[int, ...]):
    """Chunk evaluators (shallow, haar) of the retained probability of a dense brickwork run.

    The shallow side runs on the perturbation's lightcone ``cone``
    (``_shallow_cone``).  The Haar side reads the Born probability of the
    complement Bell measurement, p = ||Tr_{R^c}(U V U^dag)||^2 /
    (d_R d_{R^c}^2), from each draw of one ``groups.sample_haar_stack``:
    U V is a gather (``densesim.right_product`` of V's phased permutation),
    (U V) U^dag the one d x d product per sample, and the complement is
    traced out by ``densesim.partial_trace``.  This is the probability of
    the evolved invariant state of either experiment: (V x Omega)|Phi>
    under U x U, the form unwound on the second copy, is (U V U^dag x 1)|Phi>
    when U^T Omega U = Omega, which an orthogonal QR draw meets by
    construction and the symplectic sampler's form self-check holds every
    draw to; and (V x 1)|Phi> under U x conj(U) is the same state.  An
    orthogonal draw stays real throughout.
    """
    G, n = config.group, config.n
    _check_brickwork_cost(config, adj, cone)
    times_v = densesim.right_product(pauli.to_dense(pauli.hermitian_representative(config.perturbation)))
    d_in, d_out = 1 << len(config.region), 1 << (n - len(config.region))

    def haar_p(streams):
        U = groups.sample_haar_stack(G, streams)
        A = times_v(U) @ np.swapaxes(U.conj(), -1, -2)  # the conj of a real U is U itself
        return _retained(densesim.partial_trace(A, config.region, n), d_in, d_out)

    return Evaluators(_shallow_cone(config, adj, cone), haar_p, _dense_row_bytes(n, G.kind))


def _depth_rotation(config: ExperimentConfig, adj: groups.Adjacency):
    """Chunk evaluators of the retained probability on Majorana rotations,
    the analytic bound and its reference.

    The perturbation's component under the full bilinear set is every
    weight-k monomial, C(2n, k) of them.  A prefix region 0..m-1 holds the
    C(2m, k) monomials of Majoranas 1..2m and keeps det(R[in, K]^T R[in, K]),
    with no search; any other region takes its monomials from one component
    search, refused above ``REGION_SEARCH_QUBIT_CAP`` qubits.
    """
    groups.check_matchgate_edges(adj)
    n, m, depth = config.n, len(config.region), config.ensemble.depth
    K = _majorana_indices(config.perturbation)
    args = (
        config,
        "depth",
        _brickwork_gates(adj, depth),
        functools.partial(groups.sample_shallow_rotation_stack, config.group, depth, adj),
    )
    if config.region == tuple(range(m)):
        inside, size = math.comb(2 * m, K.size), math.comb(2 * n, K.size)
        evaluators = _rotation_evaluators(*args, functools.partial(_prefix_mass, inside=2 * m, K=K))
    else:
        if n > REGION_SEARCH_QUBIT_CAP:
            raise BudgetError(
                f"a region that is not a prefix 0..m-1 searches the C(2n, k)-vertex component of its "
                f"perturbation, so n <= {REGION_SEARCH_QUBIT_CAP}; got n={n}"
            )
        keys, size = cgraph.region_keys(config.perturbation, groups.matchgate_full_set(n), config.region)
        inside = keys.size
        evaluators = _rotation_evaluators(*args, None, keys, K)
    analytic = float(bounds.pauli_compatible_bound(Fraction(inside, size)))
    return evaluators, analytic, "region-ratio-bound/matchgate"


def _brickwork(config: ExperimentConfig, conjugate: bool):
    """The shared body of both brickwork experiments.

    Returns the evaluators, whether the shallow lightcone stays inside the
    region, and the analytic reference.
    """
    if config.ensemble.kind != "brickwork":
        raise ValidationError("brickwork experiments take a brickwork ensemble")
    n = config.n
    dense = config.group.kind != "matchgate"  # matchgates run on Majorana rotations, with no d x d draw
    if dense and n > DENSE_HAAR_QUBIT_CAP:
        raise BudgetError(f"the dense Haar side draws and conjugates d x d stacks, d = 2^n, so n <= {DENSE_HAAR_QUBIT_CAP}")
    adj = groups.parse_adjacency(config.ensemble.adjacency, n)
    cone = groups.lightcone(pauli.support(config.perturbation), config.ensemble.depth, adj)
    confined = set(cone) <= set(config.region)
    if dense:
        evaluators = _depth_dense(config, adj, cone)
        analytic, ref = _depth_analytic(config, conjugate)
    else:
        evaluators, analytic, ref = _depth_rotation(config, adj)
    return evaluators, confined, analytic, ref


def run_depth_discrimination(config: ExperimentConfig) -> ExperimentResult:
    """Invariant-state experiment separating brickwork depth from group Haar.

    Per sample the state (V x Omega)|Phi> evolves under U x U, the form is
    unwound on the second copy, and the POVM keeps the Bell projector on the
    region complement.  For group members this equals Tr[M^dag M]/(d d_C)
    with M the complement-traced U V U^dag, which is how the dense kinds
    evaluate it; the two-copy route is the tests' oracle.  Matchgate runs
    evaluate the same probability on the Majorana rotation.
    """
    if config.group.form is None:
        raise ValidationError(
            f"depth experiment needs an invariant form; kind {config.group.kind!r} has none"
        )
    evaluators, confined, analytic, ref = _brickwork(config, conjugate=False)

    def shallow_one(row, stream):
        return _shallow_row(row, stream, config.shot_mode)

    def haar_one(p, stream):
        return _observe(p, stream, config.shot_mode)

    return _run_two_sided(config, evaluators, shallow_one, haar_one, confined, analytic, ref)


def run_mixed_unitary_discrimination(config: ExperimentConfig) -> ExperimentResult:
    """Conjugate-copy experiment: state (Z_0 x 1)|Phi>, evolution U x conj(U).

    The maximally entangled state is invariant under U x conj(U), so only the
    perturbation moves; a Haar unitary spreads it by the 2-design twirl and
    the retained probability drops to d_L(d d_L - d_C)/(d(d^2 - 1)).
    """
    kind = config.group.kind
    if kind not in ("mixed_unitary", "unitary"):
        raise ValidationError(f"mixed-unitary experiment needs a unitary-kind group, got {kind!r}")
    evaluators, confined, analytic, ref = _brickwork(config, conjugate=True)

    def shallow_one(row, stream):
        return _shallow_row(row, stream, config.shot_mode)

    def haar_one(p, stream):
        return _observe(p, stream, config.shot_mode)

    return _run_two_sided(config, evaluators, shallow_one, haar_one, confined, analytic, ref)


# ---------------------------------------------------------------------------
# gate-count experiment


def _gate_sequence_rotation(planes, n: int, N: int, streams) -> np.ndarray:
    """The checked Majorana rotations of N-gate sequences, one per stream, stacked.

    The factors are drawn and applied a window of at most
    ``SHALLOW_GATES_PER_DRAW * MATCHGATE_LOCAL_FACTORS`` at a time, so the
    per-stream arrays stay bounded at any N; the rows are updated in the
    order of one call over all N factors.
    """
    R = np.tile(np.eye(2 * n), (len(streams), 1, 1))
    window = groups.SHALLOW_GATES_PER_DRAW * groups.MATCHGATE_LOCAL_FACTORS
    for lo in range(0, N, window):
        g, theta = groups.draw_factors(len(planes), min(window, N - lo), streams)
        # each drawn gate multiplies on the left, so the product runs in reverse draw order
        groups.rotate_by_exponentials(planes, g[:, ::-1], theta[:, ::-1], 2 * n, R)
    groups.check_rotation(R, f"{N}-gate sequence")
    return R


def _gatecount_rotation(config: ExperimentConfig, S: cgraph.GeneratorSet):
    """Chunk evaluators of the mass retained inside the N-ball, on Majorana
    rotations, and the analytic bound.

    A bilinear step changes one Majorana index, so the N-ball of c_K lies
    inside its Johnson N-ball.  When the planes of S cover all n(2n - 1)
    Majorana pairs, the graph on weight-k monomials is the Johnson graph
    J(2n, k): the ball is the whole Johnson ball and the component all
    C(2n, k) monomials, with no search.  Otherwise one component search
    gives both, and is refused above ``pauli.DENSE_QUBIT_CAP`` qubits; a ball
    of the Johnson size keeps the eigvalsh closed form, and a larger one is
    a broken invariant.  The budget is checked before the search, whose
    C(2n, k) vertices dominate at large n.
    """
    n, N = config.n, config.ensemble.gates
    planes = [groups.bilinear_plane(g) for g in S.generators]
    K = _majorana_indices(config.perturbation)
    expected = bounds.johnson_ball_size(n, N, K.size)
    if len({(a, b) for a, b, _ in planes}) == n * (2 * n - 1):
        ball, ball_size, size = None, expected, math.comb(2 * n, K.size)
    else:
        if n > pauli.DENSE_QUBIT_CAP:
            raise BudgetError(
                f"a gate set that does not cover every Majorana pair searches the C(2n, k)-vertex "
                f"component of its perturbation, so n <= {pauli.DENSE_QUBIT_CAP}; got n={n}"
            )
        _check_rotation_cost(config, "gate-count", N)
        comp = cgraph.component(pauli.hermitian_representative(config.perturbation), S)
        ball = np.sort(np.concatenate(comp.levels[: N + 1]))  # the N-ball: the first N + 1 levels
        ball_size, size = ball.size, comp.size
        if ball_size > expected:
            raise InvariantError(
                f"the {N}-ball of a weight-{K.size} monomial has {ball_size} vertices, more than {expected}"
            )
    evaluators = _rotation_evaluators(
        config,
        "gate-count",
        N,
        functools.partial(_gate_sequence_rotation, planes, n, N),
        functools.partial(_johnson_ball_mass, K=K, N=N) if ball_size == expected else None,
        ball,
        K,
    )
    return evaluators, float(bounds.neighborhood_ratio_bound(ball_size, size))


def run_gatecount_discrimination(config: ExperimentConfig) -> ExperimentResult:
    """Gate-budget experiment: mass retained inside the N-ball of the start.

    Shallow circuits are random products of N exponentials of the
    ensemble's ``allowed`` generators, whose conjugation provably cannot
    leave the ball; Haar group elements spread the Pauli uniformly over its
    whole component.  The mass is evaluated on the Majorana rotation, so the
    generators must be Majorana bilinears.
    """
    if config.ensemble.kind != "gate_count":
        raise ValidationError("gate-count experiment takes a gate_count ensemble")
    G = config.group
    if G.kind != "matchgate":
        raise ValidationError(f"the gate-count experiment runs on the matchgate group, got {G.kind!r}")
    if config.ensemble.allowed is None:
        raise ValidationError("gate-count experiment needs the ensemble's allowed generator set")
    evaluators, analytic = _gatecount_rotation(config, config.ensemble.allowed)

    def shallow_one(row, stream):
        return _shallow_row(row, stream, config.shot_mode)

    def haar_one(p, stream):
        return _observe(p, stream, config.shot_mode)

    return _run_two_sided(
        config, evaluators, shallow_one, haar_one, True, analytic, "gate-count-bound/ball-ratio"
    )
