"""Closed-form discrimination lower bounds and counting formulas.

Every bound is a diamond-norm lower bound of the form 2(p_shallow - p_haar)
coming from a two-outcome channel discrimination experiment; with a perfectly
retained shallow probability this is 2(1 - p_haar).  All counting quantities
(binomial ball sizes, component fractions) are computed in exact big-integer
or rational arithmetic, and floats appear only as renderings.

Reference ids returned in reports are stable formula names used by the CLI
output schema, not citations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Real

from .errors import ValidationError


@dataclass(frozen=True)
class BoundReport:
    """A rendered bound: formula id, inputs, exact value, float, reference."""

    formula: str
    inputs: dict
    exact: Fraction | None
    value: float
    reference: str

    def __post_init__(self):
        if self.exact is not None and abs(float(self.exact) - self.value) > 1e-12:
            raise ValidationError(f"float rendering drifted from exact value in {self.formula}")


def _check_probability(p, name: str) -> None:
    if not isinstance(p, Real):
        raise ValidationError(f"{name} must be a real number")
    if not 0 <= p <= 1:
        raise ValidationError(f"{name} must lie in [0, 1], got {p}")


def _check_dims(d: int, d_L: int) -> int:
    for v, name in ((d, "d"), (d_L, "d_L")):
        if v < 2 or v & (v - 1):
            raise ValidationError(f"{name} must be a power of 2 that is at least 2, got {v}")
    if d % d_L:
        raise ValidationError(f"d_L={d_L} must divide d={d}")
    if d_L == d:
        raise ValidationError("degenerate geometry: the complement region is empty")
    return d // d_L


def discrimination_bound(p_shallow, p_haar):
    """Diamond-norm lower bound 2(p_shallow - p_haar) from POVM statistics."""
    _check_probability(p_shallow, "p_shallow")
    _check_probability(p_haar, "p_haar")
    return 2 * (p_shallow - p_haar)


def matchgate_depth_bound(n: int) -> Fraction:
    """The depth-experiment bound 2 - (n+1)/(2n-1), approaching 3/2."""
    if n < 2 or n % 2:
        raise ValidationError(f"the mid-chain construction needs even n >= 2, got {n}")
    return 2 - Fraction(n + 1, 2 * n - 1)


def exact_haar_povm_probability(kind: str, d: int, d_L: int) -> Fraction:
    """Exact Bell-complement success probability under the Haar group twirl.

    Assembled as (-2 d_L d_C^2 + d d_L^2 d_C +- d^2) / (d d_C (d+-2)(d-+1))
    with upper signs orthogonal, lower symplectic; it simplifies to
    (d_L^2 +- d_L - 2)/((d+-2)(d-+1)).
    """
    d_C = _check_dims(d, d_L)
    if kind == "orthogonal":
        num = -2 * d_L * d_C**2 + d * d_L**2 * d_C + d**2
        den = d * d_C * (d + 2) * (d - 1)
    elif kind == "symplectic":
        if d < 4:
            raise ValidationError(f"symplectic twirl needs d >= 4, got {d}")
        num = -2 * d_L * d_C**2 + d * d_L**2 * d_C - d**2
        den = d * d_C * (d - 2) * (d + 1)
    else:
        raise ValidationError(f"no Haar probability formula for kind {kind!r}")
    return Fraction(num, den)


def orthogonal_bound(d: int, d_L: int) -> Fraction:
    """2(1 - (d_L^2 + d_L - 2)/((d+2)(d-1)))."""
    _check_dims(d, d_L)
    return 2 * (1 - Fraction(d_L**2 + d_L - 2, (d + 2) * (d - 1)))


def symplectic_bound(d: int, d_L: int) -> Fraction:
    """2(1 - (d_L^2 - d_L - 2)/((d-2)(d+1)))."""
    _check_dims(d, d_L)
    if d < 4:
        raise ValidationError(f"symplectic bound needs d >= 4, got {d}")
    return 2 * (1 - Fraction(d_L**2 - d_L - 2, (d - 2) * (d + 1)))


def mixed_unitary_haar_probability(d: int, d_L: int) -> Fraction:
    """Haar success probability d_L(d d_L - d_C)/(d(d^2 - 1)) for the
    conjugate-copy experiment."""
    d_C = _check_dims(d, d_L)
    return Fraction(d_L * (d * d_L - d_C), d * (d * d - 1))


def mixed_unitary_bound(d: int, d_L: int) -> Fraction:
    """2(1 - p) for the conjugate-copy experiment; approaches 3/2 at d_L = d/2."""
    return 2 * (1 - mixed_unitary_haar_probability(d, d_L))


def pauli_compatible_bound(r) -> Fraction:
    """2(1 - r) from the in-region fraction r of a conjugated Pauli."""
    _check_probability(r, "r")
    return 2 * (1 - Fraction(r))


def neighborhood_ratio_bound(ball: int, component: int) -> Fraction:
    """2(1 - ball/component) for an N-ball inside a commutator component."""
    if ball < 1 or component < 1:
        raise ValidationError("ball and component counts must be positive")
    if ball > component:
        raise ValidationError(f"ball {ball} exceeds component {component}")
    return 2 * (1 - Fraction(ball, component))


def simple_gatecount_bound(S_size: int, N: int, component: int) -> Fraction:
    """max(0, 2(1 - |S|^N / component)), the crude gate-count bound."""
    if S_size < 1 or component < 1 or N < 0:
        raise ValidationError("need S_size >= 1, component >= 1, N >= 0")
    if S_size > 1 and N * (S_size.bit_length() - 1) >= component.bit_length():
        return Fraction(0)  # |S|^N >= 2^bits(component) > component, without the power
    raw = 2 * (1 - Fraction(S_size**N, component))
    return max(Fraction(0), raw)


def gatecount_rate(c) -> float:
    """f(c) = c (c-1)^(1/c - 1) / 2; strictly below 1 exactly when c > 2."""
    if c <= 1:
        raise ValidationError(f"rate defined for c > 1, got {c}")
    return c * (c - 1) ** (1.0 / c - 1.0) / 2.0


def gatecount_envelope(n: int, c) -> float:
    """Asymptotic envelope c(n+c)/(2(c-1) sqrt(pi n)) f(c)^(2n) for the exact
    in-ball fraction at gate budget n/c."""
    if n < 1:
        raise ValidationError(f"need n >= 1, got {n}")
    f = gatecount_rate(c)
    return c * (n + c) / (2.0 * (c - 1) * math.sqrt(math.pi * n)) * f ** (2 * n)


def matchgate_gatecount_ratio(n: int, c) -> tuple[Fraction, float]:
    """Exact in-ball fraction sum_{k<=n/c} C(n,k)^2 / C(2n,n) and its rate f(c)."""
    if c <= 2:
        raise ValidationError(f"separation needs c > 2, got {c}")
    budget = n / c
    k_max = round(budget)
    if abs(budget - k_max) > 1e-9:
        raise ValidationError(f"exact branch needs n divisible by c, got n={n}, c={c}")
    num = sum(math.comb(n, k) ** 2 for k in range(k_max + 1))
    return Fraction(num, math.comb(2 * n, n)), gatecount_rate(c)


def johnson_ball_size(n: int, N: int, k: int | None = None) -> int:
    """sum_{j<=N} C(k,j) C(2n-k,j): the N-ball in the Johnson graph J(2n, k).

    Under the full bilinear set these are the Majorana monomials of weight k
    that differ from a given one in at most N modes; k defaults to n.
    """
    k = n if k is None else k
    if n < 1 or N < 0 or not 0 <= k <= 2 * n:
        raise ValidationError("need n >= 1, N >= 0 and 0 <= k <= 2n")
    return sum(math.comb(k, j) * math.comb(2 * n - k, j) for j in range(min(N, k, 2 * n - k) + 1))


_FORMULAS = {
    "discrimination": (
        discrimination_bound,
        ("p_shallow", "p_haar"),
        "two-outcome-discrimination",
    ),
    "matchgate-depth": (matchgate_depth_bound, ("n",), "depth-bound/matchgate"),
    "orthogonal": (orthogonal_bound, ("d", "d_L"), "depth-bound/orthogonal"),
    "symplectic": (symplectic_bound, ("d", "d_L"), "depth-bound/symplectic"),
    "povm-orthogonal": (
        lambda d, d_L: exact_haar_povm_probability("orthogonal", d, d_L),
        ("d", "d_L"),
        "haar-povm/orthogonal",
    ),
    "povm-symplectic": (
        lambda d, d_L: exact_haar_povm_probability("symplectic", d, d_L),
        ("d", "d_L"),
        "haar-povm/symplectic",
    ),
    "mixed-unitary": (mixed_unitary_bound, ("d", "d_L"), "depth-bound/mixed-unitary"),
    "pauli-compatible": (pauli_compatible_bound, ("r",), "region-ratio-bound"),
    "neighborhood-ratio": (
        neighborhood_ratio_bound,
        ("ball", "component"),
        "gate-count-bound/ball-ratio",
    ),
    "simple-gatecount": (
        simple_gatecount_bound,
        ("S_size", "N", "component"),
        "gate-count-bound/crude",
    ),
}


def available_formulas() -> tuple[str, ...]:
    return tuple(sorted(_FORMULAS))


def bound_report(formula: str, **inputs) -> BoundReport:
    """Evaluate a named formula into a BoundReport with its reference id."""
    if formula not in _FORMULAS:
        raise ValidationError(f"unknown formula {formula!r}; known: {available_formulas()}")
    fn, names, ref = _FORMULAS[formula]
    missing = [k for k in names if k not in inputs]
    extra = [k for k in inputs if k not in names]
    if missing or extra:
        raise ValidationError(f"formula {formula!r} takes {names}; missing {missing}, extra {extra}")
    value = fn(**{k: inputs[k] for k in names})
    exact = value if isinstance(value, Fraction) else None
    return BoundReport(formula, dict(inputs), exact, float(value), ref)
