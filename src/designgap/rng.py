"""Counter-based random streams with scheduling-independent results.

Every Monte Carlo sample i draws from its own Philox generator keyed by
(master_seed, i), so the value of a sample never depends on how many samples
ran before it, and any single sample can be replayed in isolation.  Sampling
is serial: the per-sample work holds the GIL, and a thread pool ran these
loops 1.0-1.9x slower at two threads than at one on a 2-core machine.  ``accumulate_moments`` reduces
in fixed 64-sample chunks, which fixes its output bits and keeps the partial
sums of large matrices streaming.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

CHUNK_SIZE = 64


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """The dedicated generator for one Monte Carlo sample."""
    if not 0 <= seed < 2**63:
        raise ValidationError(f"seed must be a nonnegative 63-bit integer, got {seed}")
    key = np.array([seed, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def sample_array(fn, samples: int, seed: int, index_offset: int = 0) -> np.ndarray:
    """values[i] = fn(stream_{offset+i}) for i in range(samples), stacked.

    A scalar fn gives shape (samples,); a length-w vector fn gives (samples, w).
    """
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    return np.array(
        [fn(sample_stream(seed, index_offset + i)) for i in range(samples)], dtype=np.float64
    )


def accumulate_moments(fn, shape, samples: int, seed: int):
    """Elementwise sum and sum of squared moduli of fn(stream_i).

    Returns (total, total_sq) where total is complex and total_sq real.  Each
    64-sample chunk is summed on its own and the chunk sums are added in
    order, so the result bits do not depend on how the loop is scheduled.
    """
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    total = np.zeros(shape, dtype=np.complex128)
    total_sq = np.zeros(shape, dtype=np.float64)
    for lo in range(0, samples, CHUNK_SIZE):
        s = np.zeros(shape, dtype=np.complex128)
        q = np.zeros(shape, dtype=np.float64)
        for i in range(lo, min(lo + CHUNK_SIZE, samples)):
            v = fn(sample_stream(seed, i))
            s += v
            q += np.abs(v) ** 2
        total += s
        total_sq += q
    return total, total_sq


def mean_and_stderr_from_sums(total, total_sq, samples: int):
    """Elementwise mean and standard error from accumulate_moments output."""
    mean = total / samples
    if samples < 2:
        return mean, np.zeros_like(total_sq)
    var = (total_sq - samples * np.abs(mean) ** 2) / (samples - 1)
    stderr = np.sqrt(np.maximum(var, 0.0) / samples)
    return mean, stderr


def mean_and_stderr(values: np.ndarray) -> tuple[float, float]:
    """Sample mean and standard error (ddof=1; zero stderr for one sample)."""
    m = float(np.mean(values))
    if values.size < 2:
        return m, 0.0
    return m, float(np.std(values, ddof=1) / np.sqrt(values.size))
