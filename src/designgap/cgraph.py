"""Commutator graphs of Pauli generator sets, explored as implicit graphs.

Vertices are the 4^n phaseless Pauli strings, encoded as 2n-bit integers
(``pauli.to_key``).  A generator H connects P to the projective product HP
exactly when H and P anticommute, so a neighbor step is a pure XOR of bit
words plus a parity test; no edge lists are ever built.  Components, N-balls,
diameters, and region fractions all run on these integer keys.

The one breadth-first search behind them is level-synchronous over numpy
int64 arrays.  A vertex v anticommutes with g exactly when v & h_g has odd
parity, where h_g = (z_g << n) | x_g is g's key with its two words swapped;
so each generator set keeps one (256, |S|) bool parity table per byte of the
2n-bit key, and a step gets the anticommutation mask of the whole frontier
against every generator as ceil(2n/8) table gathers XORed together.  It
XORs the anticommuting pairs and dedupes the candidates by sorting, each
chunk of a large level on its own, and merges the sorted runs.  The
graph is undirected, so the next level is the candidates found in neither of
the last two levels, and a component or ball keeps no 4^n visited set; only
the census, which covers all 4^n vertices anyway, drops visited candidates
through its bitmap before the sort.  int64 keys hold n <= KEY_QUBIT_CAP.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import pauli
from .errors import BudgetError, ValidationError

COMPONENT_SIZE_CAP = 5_000_000
CENSUS_QUBIT_CAP = 10
# exact diameters run a BFS from every vertex: |C|^2 |S| vertex-generator
# tests, at 0.6e7-3e7 a second on one core of a 2-core x86 machine
DIAMETER_EXACT_COST = 100_000_000
KEY_QUBIT_CAP = 31  # 2n-bit keys in a signed 64-bit word
CANDIDATE_CHUNK = 1 << 20  # vertex-generator pairs expanded per numpy pass


@dataclass(frozen=True)
class GeneratorSet:
    """A set of Hermitian Pauli generators on a common qubit count."""

    n: int
    generators: tuple[pauli.PauliString, ...]

    def __post_init__(self):
        seen = set()
        for g in self.generators:
            if g.n != self.n:
                raise ValidationError(f"generator {g} has {g.n} qubits, expected {self.n}")
            key = pauli.to_key(g)
            if key == 0:
                raise ValidationError("identity is not a valid generator")
            if key in seen:
                raise ValidationError(f"duplicate generator {pauli.to_text(g)} (up to phase)")
            seen.add(key)


@dataclass(frozen=True, eq=False)
class Component:
    """A BFS component or ball: the keys at each distance from the root.

    levels[d] is the sorted int64 array of the keys at distance d from the
    representative's key.  keys, all of them sorted, is built on first use
    and kept; a census, which orders its components by their roots, never
    builds it.  Every array is read-only, and no vertex is held as a Python
    object.
    """

    n: int
    representative: pauli.PauliString
    levels: tuple[np.ndarray, ...]
    size: int = field(init=False)

    def __post_init__(self):
        for level in self.levels:
            level.flags.writeable = False
        object.__setattr__(self, "size", sum(level.size for level in self.levels))

    @functools.cached_property
    def keys(self) -> np.ndarray:
        keys = np.concatenate(self.levels)
        keys.sort()
        keys.flags.writeable = False
        return keys


@dataclass(frozen=True)
class DiameterResult:
    value: int
    mode: str  # "exact" or "lower-bound"


def _gen_words(S: GeneratorSet) -> tuple[np.ndarray, list[np.ndarray]]:
    """Generator keys as an int64 array, and one (256, |S|) bool table per
    byte of the 2n-bit key: entry [c, j] is the parity of byte c against
    that byte of generator j's swapped word (z << n) | x."""
    if S.n > KEY_QUBIT_CAP:
        raise BudgetError(
            f"commutator-graph vertices are 2n-bit int64 keys, so n <= {KEY_QUBIT_CAP}; got n={S.n}"
        )
    words = [(pauli.to_key(g), (g.z_bits << S.n) | g.x_bits) for g in S.generators]
    keys, swapped = np.array(words, dtype=np.int64).reshape(-1, 2).T
    byte = np.arange(256, dtype=np.int64)[:, None]
    tables = [
        _parity(byte & ((swapped >> shift) & 0xFF), 8).astype(bool) for shift in range(0, 2 * S.n, 8)
    ]
    return keys, tables


def _parity(a: np.ndarray, n: int) -> np.ndarray:
    """Bit parity of each entry of a (all below 2**n), XOR-folded in place."""
    shift = 1
    while shift < n:
        shift <<= 1
    while shift > 1:
        shift >>= 1
        a ^= a >> shift
    return a & 1


def _sorted_unique(a: np.ndarray) -> np.ndarray:
    """The distinct entries of a, ascending, by one sort.

    numpy 2's np.unique hashes integer input, which on millions of these
    keys is over ten times slower than sorting.
    """
    return _distinct_sorted(np.sort(a))


def _distinct_sorted(a: np.ndarray) -> np.ndarray:
    """The distinct entries of the sorted array a."""
    keep = np.empty(a.size, dtype=bool)
    keep[:1] = True
    np.not_equal(a[1:], a[:-1], out=keep[1:])
    return a[keep]


def _merge_runs(runs: list[np.ndarray]) -> np.ndarray:
    """The distinct entries of sorted arrays, ascending.

    numpy's stable sort of int64 is a timsort, which finds the sorted runs
    of the concatenation and merges them instead of sorting again.
    """
    a = np.concatenate(runs)
    a.sort(kind="stable")
    return _distinct_sorted(a)


def _neighbor_keys(
    level: np.ndarray, words, n: int, cap: int, visited: np.ndarray | None = None
) -> np.ndarray:
    """Sorted distinct neighbors of the vertices in level, less the visited ones.

    The level is expanded CANDIDATE_CHUNK vertex-generator pairs at a time.
    A level of one chunk is deduped by one sort.  Otherwise each chunk's
    candidates are deduped on their own and the sorted runs are merged,
    never sorted again; once more than cap distinct keys are found it
    returns them early, so a level past the size budget is never
    materialized in full.  A candidate marked in the visited bitmap is
    dropped before the dedupe sort.
    """
    keys, tables = words
    rows = max(1, CANDIDATE_CHUNK // max(1, keys.size))

    def candidates(v: np.ndarray) -> np.ndarray:
        # np.take gathers whole table rows about three times faster than indexing
        odd = np.take(tables[0], v & 0xFF, axis=0)
        for b in range(1, len(tables)):
            odd ^= np.take(tables[b], (v >> (8 * b)) & 0xFF, axis=0)
        # np.compress takes a flat mask faster than boolean indexing does
        found = np.compress(odd.ravel(), v[:, None] ^ keys)
        return found if visited is None else np.compress(~visited[found], found)

    if level.size <= rows:
        return _sorted_unique(candidates(level))
    found = np.empty(0, dtype=np.int64)
    pending: list[np.ndarray] = []
    pending_size = 0
    for lo in range(0, level.size, rows):
        run = _sorted_unique(candidates(level[lo : lo + rows]))
        pending.append(run)
        pending_size += run.size
        if pending_size > max(found.size, CANDIDATE_CHUNK):
            found = _merge_runs([found, *pending])
            pending, pending_size = [], 0
            if found.size > cap:
                return found
    return _merge_runs([found, *pending])


def _absent(keys: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Mask of the keys not in level; both arrays are sorted."""
    if level.size == 0:
        return np.ones(keys.size, dtype=bool)
    at = np.minimum(np.searchsorted(level, keys), level.size - 1)
    return level[at] != keys


def _bfs(
    start_key: int,
    words,
    n: int,
    max_dist: int | None = None,
    max_size: int = COMPONENT_SIZE_CAP,
    visited: np.ndarray | None = None,
) -> list[np.ndarray]:
    """BFS levels from start_key, optionally truncated at max_dist.

    Level d is the sorted int64 array of the keys at distance d.  A neighbor
    of level d lies in level d-1, d or d+1, so the next level is the
    neighbors found in neither of the last two.  Given a 4^n visited bitmap
    instead, the next level is the unvisited neighbors, and each level is
    marked in it as it is found.  BudgetError is raised when more than
    max_size vertices are reached.
    """
    levels = [np.array([start_key], dtype=np.int64)]
    if visited is not None:
        visited[start_key] = True
    prev = np.empty(0, dtype=np.int64)
    size = 1
    while max_dist is None or len(levels) <= max_dist:
        cur = levels[-1]
        # more than this many neighbors leaves more than max_size - size new ones
        found = _neighbor_keys(cur, words, n, max_size - size + cur.size + prev.size, visited)
        new = found if visited is not None else found[_absent(found, cur) & _absent(found, prev)]
        if new.size == 0:
            break
        size += new.size
        if size > max_size:
            raise BudgetError(f"component exceeds {max_size} vertices")
        if visited is not None:
            visited[new] = True
        levels.append(new)
        prev = cur
    return levels


def component(P: pauli.PauliString, S: GeneratorSet, radius: int | None = None) -> Component:
    """BFS closure of P under neighbor steps, or its ball of the given radius.

    The representative is P itself; a ball's levels stop at distance radius.
    """
    if P.n != S.n:
        raise ValidationError(f"size mismatch: {P.n} vs {S.n} qubits")
    if radius is not None and radius < 0:
        raise ValidationError(f"negative radius {radius}")
    levels = _bfs(pauli.to_key(P), _gen_words(S), S.n, max_dist=radius)
    return Component(S.n, pauli.hermitian_representative(P), tuple(levels))


def region_keys(P: pauli.PauliString, S: GeneratorSet, region: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """The sorted keys of P's component supported inside the region, and the component's size."""
    reg = set(region)
    if not reg.issuperset(pauli.support(P)):
        raise ValidationError("perturbation support must lie inside the region")
    if not reg.issubset(range(S.n)):
        raise ValidationError(f"region {sorted(reg)} outside 0..{S.n - 1}")
    region_bits = 0
    for q in reg:
        region_bits |= 1 << q
    keys = component(P, S).keys
    mask = (1 << S.n) - 1
    outside = ((keys >> S.n) | (keys & mask)) & ~region_bits
    return keys[outside == 0], keys.size


def r_fraction(
    P: pauli.PauliString, S: GeneratorSet, region: tuple[int, ...]
) -> tuple[Fraction, float]:
    """Fraction of P's component supported inside the region, exactly."""
    inside, size = region_keys(P, S, region)
    frac = Fraction(inside.size, size)
    return frac, float(frac)


def diameter(C: Component, S: GeneratorSet, mode: str = "auto") -> DiameterResult:
    """Largest eccentricity in the whole component C.

    Exact mode runs a BFS from every vertex; lower-bound mode does a double
    sweep (BFS to the farthest vertex, then BFS from it) and can undershoot.
    Auto mode is exact when the all-sources search, |C|^2 |S| tests of a
    vertex against a generator, costs at most DIAMETER_EXACT_COST.  C must be
    a whole component under S: a ball that stops short of it, one whose last
    level has a neighbor outside C, raises ValidationError, since neither
    mode would give the diameter of the component.
    """
    words = _gen_words(S)
    if mode not in ("auto", "exact", "lower-bound"):
        raise ValidationError(f"unknown diameter mode {mode!r}")
    if C.n != S.n:
        raise ValidationError(f"size mismatch: {C.n} vs {S.n} qubits")
    beyond = _neighbor_keys(C.levels[-1], words, C.n, COMPONENT_SIZE_CAP)
    if _absent(beyond, C.keys).any():
        raise ValidationError(
            f"diameter needs a whole component; this one stops at distance {len(C.levels) - 1} "
            "and has neighbors outside it (a ball of smaller radius)"
        )
    run_exact = mode == "exact" or (mode == "auto" and C.size**2 * len(S.generators) <= DIAMETER_EXACT_COST)
    if run_exact:
        best = 0
        for key in C.keys.tolist():
            best = max(best, len(_bfs(key, words, C.n)) - 1)
        return DiameterResult(best, "exact")
    # the far end of the sweep is the largest key at the largest distance
    far = int(C.levels[-1][-1])
    return DiameterResult(len(_bfs(far, words, C.n)) - 1, "lower-bound")


def census(S: GeneratorSet) -> list[Component]:
    """All components of the graph, in ascending order of their smallest key.

    One 4^n bitmap marks every vertex found so far; each component's BFS
    drops the marked candidates and marks its new levels.  Each BFS starts
    from the smallest unmarked key, so a component's root, levels[0][0], is
    its smallest key.
    """
    if S.n > CENSUS_QUBIT_CAP:
        raise BudgetError(f"census over 4^{S.n} Paulis exceeds cap n={CENSUS_QUBIT_CAP}")
    words = _gen_words(S)
    visited = np.zeros(1 << (2 * S.n), dtype=bool)
    out = []
    key = 0
    while True:
        levels = _bfs(key, words, S.n, visited=visited)
        out.append(Component(S.n, pauli.from_key(key, S.n), tuple(levels)))
        key += int(np.argmin(visited[key:]))
        if visited[key]:
            return out
