"""Counter-based random streams with scheduling-independent results.

Every Monte Carlo sample i draws from its own Philox generator keyed by
(master_seed, i), so the value of a sample never depends on how many samples
ran before it, and any single sample can be replayed in isolation.  Sampling
is serial: the per-sample work holds the GIL, and a thread pool ran these
loops 1.0-1.9x slower at two threads than at one on a 2-core machine.

One loop walks the samples in fixed 64-sample chunks of streams, and two
consumers read it; every sampling estimator and experiment runs on one of
them.  ``sample_rows`` takes a chunk-valued function that maps a list of
streams to one row per stream, so an estimator draws and evaluates a whole
chunk with stacked array operations, and stacks the rows, with an optional
per-sample ``finalize`` step on each value after its block.  A caller that
declares ``row_bytes``, the size of its largest per-sample intermediate,
gets its chunks in blocks of at most ``STACK_BYTES`` of such rows, so no
stack grows with the chunk past that bound.  ``sum_chunks`` takes a
function that reduces a whole chunk to partial sums (the twirl's two Gram
products) and adds them chunk by chunk, in order, so its output bits do not
depend on ``STACK_BYTES``.

Streams are recycled.  Once a chunk's consumer asks for the next chunk, the
finished chunk's generators go on a spare list, and ``sample_stream`` re-keys
a spare in place instead of building a new generator: it assigns the state of
a new Philox generator with only the key replaced (counter 0, empty buffer,
no buffered 32-bit half), which is bit for bit the generator that
``Philox(key=(seed, index))`` would build.  Re-keying takes about a tenth
of the time of construction (1.3 us against 12-17 us on a 2-core Xeon), most
of which goes to an OS-entropy ``SeedSequence`` that the explicit key then
discards.  Only the first chunk of a process constructs generators.  The rule for a
consumer is therefore: a chunk's streams are valid until the next chunk is
requested.  ``sample_rows`` and ``sum_chunks`` finish each chunk before
asking for the next, and a run nested inside a chunk function takes only
spares that no running chunk holds.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ValidationError

CHUNK_SIZE = 64
# largest stacked per-block intermediate that a declared row size may build
STACK_BYTES = 1 << 24


# generators of finished chunks, free to be re-keyed
_spare: list[np.random.Generator] = []


@functools.cache
def _new_state() -> tuple[dict, list]:
    """A new Philox generator's state without its counter and key, and its counter.

    Arrays become lists, which assign fastest.  Taken on first use, so that
    importing this module does not import numpy.random.
    """
    state = np.random.Philox(key=np.zeros(2, dtype=np.uint64)).state
    counter = state.pop("state")["counter"].tolist()
    return {**state, "buffer": state["buffer"].tolist()}, counter


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """The dedicated generator for one Monte Carlo sample.

    Re-keys a spare generator when there is one, else builds a new one; both
    give the same draws.
    """
    if not 0 <= seed < 2**63:
        raise ValidationError(f"seed must be a nonnegative 63-bit integer, got {seed}")
    if not _spare:
        return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))
    stream = _spare.pop()
    state, counter = _new_state()
    stream.bit_generator.state = {**state, "state": {"counter": counter, "key": (seed, index)}}
    return stream


def _chunks(samples: int, seed: int, index_offset: int, row_bytes: int):
    """Per 64-sample chunk, the blocks of its streams in sample order.

    Each stream is made once, when its chunk starts, and goes back to the
    spares when the consumer asks for the next chunk.  A block holds at most
    STACK_BYTES // row_bytes streams (at least one).
    """
    if samples < 1:
        raise ValidationError(f"need at least one sample, got {samples}")
    step = max(1, STACK_BYTES // row_bytes) if row_bytes > 0 else CHUNK_SIZE
    for lo in range(0, samples, CHUNK_SIZE):
        hi = min(lo + CHUNK_SIZE, samples)
        streams = [sample_stream(seed, index_offset + i) for i in range(lo, hi)]
        yield [streams[b : b + step] for b in range(0, len(streams), step)]
        _spare.extend(streams)


def sample_rows(
    fn_chunk, samples: int, seed: int, index_offset: int = 0, row_bytes: int = 0, finalize=None
) -> np.ndarray:
    """values[i] = row i of fn_chunk over the streams offset+i, stacked.

    fn_chunk maps a list of streams to one scalar or one length-w vector per
    stream, giving shape (samples,) or (samples, w).  With ``finalize``, a
    block's scalars are then mapped one sample at a time, row i becoming
    finalize(value_i, stream_i), so a per-sample step (a check, a draw off
    the sample's own stream) follows the stacked evaluation.
    """

    def block_rows(block):
        values = fn_chunk(block)
        if finalize is not None:
            values = [finalize(v, stream) for v, stream in zip(np.asarray(values, dtype=np.float64).tolist(), block)]
        return np.asarray(values, dtype=np.float64)

    return np.concatenate(
        [block_rows(block) for blocks in _chunks(samples, seed, index_offset, row_bytes) for block in blocks]
    )


def sum_chunks(fn_chunk, samples: int, seed: int) -> tuple[np.ndarray, ...]:
    """The sums of fn_chunk over the 64-sample chunks of streams, added in chunk order.

    fn_chunk maps one whole chunk of streams to a tuple of arrays, its
    partial sums; each is added to a running total that starts from zero.
    A chunk is never split into blocks, so the result bits depend only on
    the chunk size, not on ``STACK_BYTES``.
    """
    totals = None
    for (streams,) in _chunks(samples, seed, 0, 0):
        parts = fn_chunk(streams)
        if totals is None:
            totals = tuple(np.zeros_like(part) for part in parts)
        for total, part in zip(totals, parts):
            total += part
    return totals


def mean_and_stderr_from_sums(total, total_sq, samples: int):
    """Elementwise mean and standard error from a sum and a sum of squared moduli."""
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
