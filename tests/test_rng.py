"""Scheduling-independent Monte Carlo plumbing."""

import numpy as np
import pytest

from conftest import accumulate_moments, accumulate_rows, fresh_stream
from designgap import rng
from designgap.errors import ValidationError


def scalar_rows(streams):
    return [stream.normal() for stream in streams]


def vector_rows(streams):
    return [stream.normal(size=3) for stream in streams]


class TestSampleStream:
    def test_reproducible(self):
        a = rng.sample_stream(7, 3).normal(size=5)
        b = rng.sample_stream(7, 3).normal(size=5)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = rng.sample_stream(7, 0).normal(size=5)
        b = rng.sample_stream(7, 1).normal(size=5)
        assert not np.array_equal(a, b)

    def test_distinct_seeds_differ(self):
        a = rng.sample_stream(1, 0).normal(size=5)
        b = rng.sample_stream(2, 0).normal(size=5)
        assert not np.array_equal(a, b)

    def test_seed_validation(self):
        with pytest.raises(ValidationError):
            rng.sample_stream(-1, 0)
        with pytest.raises(ValidationError):
            rng.sample_stream(2**63, 0)


DRAWS = {
    "integers-int32": lambda g: g.integers(0, 1000, size=5, dtype=np.int32),
    "integers-int64": lambda g: g.integers(0, 10**12, size=5, dtype=np.int64),
    "random": lambda g: g.random(5),
    "normal": lambda g: g.normal(1.0, 2.0, size=5),
    "standard_normal": lambda g: g.standard_normal(5),
    "uniform": lambda g: g.uniform(-1.0, 1.0, size=5),
}
# earlier lives of a generator: an odd number of 32-bit draws leaves a
# buffered 32-bit half behind, a normal draw a partly used buffer
PRIOR_USE = {
    "unused": lambda g: None,
    "odd-int32": lambda g: g.integers(0, 7, size=3, dtype=np.int32),
    "normal": lambda g: g.normal(size=3),
}


def plain_state(state):
    """A bit-generator state with its arrays as lists, comparable with ==."""
    if isinstance(state, dict):
        return {k: plain_state(v) for k, v in state.items()}
    return state.tolist() if isinstance(state, np.ndarray) else state


def recycled(monkeypatch, prior, seed, index):
    """rng.sample_stream(seed, index) once a 1-sample run, which used its
    stream as ``prior`` says, has left that stream as the only spare."""
    monkeypatch.setattr(rng, "_spare", [])
    used = []

    def fn_chunk(streams):
        for s in streams:
            PRIOR_USE[prior](s)
            used.append(s)
        return [0.0] * len(streams)

    rng.sample_rows(fn_chunk, 1, 99)
    stream = rng.sample_stream(seed, index)
    assert stream is used[0] and rng._spare == []
    return stream


class TestRecycling:
    @pytest.mark.parametrize("prior", sorted(PRIOR_USE))
    @pytest.mark.parametrize("draw", sorted(DRAWS))
    def test_recycled_stream_draws_like_a_fresh_one(self, monkeypatch, prior, draw):
        def values(g):
            draws = [DRAWS[draw](g), g.integers(0, 9, dtype=np.int32), DRAWS[draw](g), g.random()]
            return [np.asarray(v).tobytes() for v in draws]

        assert values(recycled(monkeypatch, prior, 7, 130)) == values(fresh_stream(7, 130))

    @pytest.mark.parametrize("prior", sorted(PRIOR_USE))
    def test_recycled_state_is_a_fresh_state(self, monkeypatch, prior):
        # the whole state dict: a new field or a new layout in numpy fails here
        got = recycled(monkeypatch, prior, 2**63 - 1, 2**64 - 1)
        want = fresh_stream(2**63 - 1, 2**64 - 1)
        assert plain_state(got.bit_generator.state) == plain_state(want.bit_generator.state)

    def test_seed_is_checked_before_a_spare_is_taken(self, monkeypatch):
        spare = rng.sample_stream(0, 0)
        monkeypatch.setattr(rng, "_spare", [spare])
        with pytest.raises(ValidationError):
            rng.sample_stream(-1, 0)
        assert rng._spare == [spare]

    def test_back_to_back_runs_match_fresh_rows(self):
        for seed in (3, 4):
            got = rng.sample_rows(lambda streams: [s.normal() for s in streams], 130, seed)
            assert got.tolist() == [fresh_stream(seed, i).normal() for i in range(130)]

    def test_nested_run_takes_no_running_stream(self):
        inner_runs = []

        def inner(streams):
            return [s.random() for s in streams]

        def outer(streams):
            first = [s.normal() for s in streams]
            inner_runs.append(rng.sample_rows(inner, 70, 9).tolist())
            return [[a, s.normal()] for a, s in zip(first, streams)]

        got = rng.sample_rows(outer, 130, 1)
        want = []
        for i in range(130):
            g = fresh_stream(1, i)
            want.append([g.normal(), g.normal()])
        assert got.tolist() == want
        assert inner_runs == [[fresh_stream(9, i).random() for i in range(70)]] * 3

    def test_a_run_builds_at_most_one_chunk_of_generators(self, monkeypatch):
        monkeypatch.setattr(rng, "_spare", [])
        built = []
        philox = np.random.Philox

        def counted(*args, **kwargs):
            built.append(1)
            return philox(*args, **kwargs)

        monkeypatch.setattr(np.random, "Philox", counted)
        got = rng.sample_rows(lambda streams: [s.normal() for s in streams], 130, 6)
        monkeypatch.setattr(np.random, "Philox", philox)
        assert len(built) <= rng.CHUNK_SIZE
        assert got.tolist() == [fresh_stream(6, i).normal() for i in range(130)]


class TestSampleRows:
    def test_index_offset_shifts_streams(self):
        base = rng.sample_rows(scalar_rows, 20, 5)
        shifted = rng.sample_rows(scalar_rows, 10, 5, index_offset=10)
        assert np.array_equal(base[10:], shifted)

    def test_sample_i_independent_of_total(self):
        short = rng.sample_rows(scalar_rows, 10, 5)
        long = rng.sample_rows(scalar_rows, 200, 5)
        assert np.array_equal(short, long[:10])

    def test_needs_positive_samples(self):
        with pytest.raises(ValidationError):
            rng.sample_rows(scalar_rows, 0, 5)


class TestSampleVectors:
    def test_shape(self):
        assert rng.sample_rows(vector_rows, 150, 9).shape == (150, 3)

    def test_rows_match_scalar_streams(self):
        rows = rng.sample_rows(vector_rows, 5, 9)
        for i in range(5):
            assert np.array_equal(rows[i], rng.sample_stream(9, i).normal(size=3))


class TestAccumulateMoments:
    def test_matches_direct_loop(self):
        def fn(stream):
            return stream.normal(size=(2, 2)) + 1j * stream.normal(size=(2, 2))

        total, total_sq = accumulate_moments(fn, (2, 2), 130, 3)
        want = np.zeros((2, 2), dtype=np.complex128)
        want_sq = np.zeros((2, 2))
        for i in range(130):
            v = fn(rng.sample_stream(3, i))
            want += v
            want_sq += np.abs(v) ** 2
        assert np.allclose(total, want)
        assert np.allclose(total_sq, want_sq)

    def test_sums_in_fixed_chunks(self):
        # each 64-sample chunk is summed on its own, then the chunks in order
        def fn(stream):
            return stream.normal(size=(3,)).astype(np.complex128)

        total, total_sq = accumulate_moments(fn, (3,), 200, 11)
        want = np.zeros(3, dtype=np.complex128)
        want_sq = np.zeros(3)
        for lo in range(0, 200, rng.CHUNK_SIZE):
            rows = [fn(rng.sample_stream(11, i)) for i in range(lo, min(lo + rng.CHUNK_SIZE, 200))]
            s = np.zeros(3, dtype=np.complex128)
            q = np.zeros(3)
            for v in rows:
                s += v
                q += np.abs(v) ** 2
            want += s
            want_sq += q
        assert np.array_equal(total, want)
        assert np.array_equal(total_sq, want_sq)


class TestChunkLoop:
    @staticmethod
    def complex_rows(shape):
        def fn_chunk(streams):
            return np.stack([s.normal(size=shape) + 1j * s.normal(size=shape) for s in streams])

        return fn_chunk

    @pytest.mark.parametrize("shape", [(1,), (2,), (3,), (4, 4), (2, 1, 3)])
    @pytest.mark.parametrize("samples", [1, 63, 64, 65, 130])
    @pytest.mark.parametrize("per_block", [None, 1, 3])
    def test_stacked_sums_are_the_sequential_sums(self, monkeypatch, shape, samples, per_block):
        from conftest import accumulate_reference

        row_bytes = 0
        if per_block is not None:
            row_bytes = 16 * int(np.prod(shape))
            monkeypatch.setattr(rng, "STACK_BYTES", per_block * row_bytes)
        fn_chunk = self.complex_rows(shape)
        total, total_sq = accumulate_rows(fn_chunk, shape, samples, 8, row_bytes)
        want, want_sq = accumulate_reference(lambda s: fn_chunk([s])[0], shape, samples, 8)
        assert total.tobytes() == want.tobytes()
        assert total_sq.tobytes() == want_sq.tobytes()

    @pytest.mark.parametrize("chunk", [7, 64])
    def test_blocks_respect_the_byte_bound(self, monkeypatch, chunk):
        monkeypatch.setattr(rng, "CHUNK_SIZE", chunk)
        monkeypatch.setattr(rng, "STACK_BYTES", 5 * 100)
        sizes = []

        def fn_chunk(streams):
            sizes.append(len(streams))
            return [s.normal() for s in streams]

        values = rng.sample_rows(fn_chunk, 130, 2, row_bytes=100)
        assert max(sizes) == 5 and sum(sizes) == 130
        assert values.tolist() == [fresh_stream(2, i).normal() for i in range(130)]

    def test_one_stream_per_sample(self, monkeypatch):
        calls = []
        real = rng.sample_stream

        def counted(seed, index):
            calls.append(index)
            return real(seed, index)

        monkeypatch.setattr(rng, "sample_stream", counted)
        rng.sample_rows(lambda streams: [s.normal() for s in streams], 130, 1, index_offset=5)
        assert calls == list(range(5, 135))
        calls.clear()
        accumulate_rows(self.complex_rows((2,)), (2,), 70, 1, row_bytes=32)
        assert calls == list(range(70))

    def test_needs_positive_samples(self):
        with pytest.raises(ValidationError):
            rng.sample_rows(lambda streams: [0.0] * len(streams), 0, 5)
        with pytest.raises(ValidationError):
            accumulate_rows(self.complex_rows((2,)), (2,), 0, 5)


class TestSumChunks:
    @staticmethod
    def chunk_sums(streams):
        rows = np.stack([s.normal(size=3) + 1j * s.normal(size=3) for s in streams])
        return rows.sum(axis=0), np.abs(rows).sum(axis=0)

    @pytest.mark.parametrize("samples", [1, 63, 64, 65, 130])
    def test_adds_each_chunk_in_order_from_zero(self, samples):
        total, total_abs = rng.sum_chunks(self.chunk_sums, samples, 8)
        want = np.zeros(3, dtype=np.complex128)
        want_abs = np.zeros(3)
        for lo in range(0, samples, rng.CHUNK_SIZE):
            s, a = self.chunk_sums([fresh_stream(8, i) for i in range(lo, min(lo + rng.CHUNK_SIZE, samples))])
            want += s
            want_abs += a
        assert total.tobytes() == want.tobytes()
        assert total_abs.tobytes() == want_abs.tobytes()

    def test_whole_chunks_whatever_the_stack_bound(self, monkeypatch):
        monkeypatch.setattr(rng, "STACK_BYTES", 1)
        sizes = []

        def fn_chunk(streams):
            sizes.append(len(streams))
            return (np.zeros(2),)

        rng.sum_chunks(fn_chunk, 130, 1)
        assert sizes == [64, 64, 2]

    def test_one_stream_per_sample(self, monkeypatch):
        calls = []
        real = rng.sample_stream

        def counted(seed, index):
            calls.append(index)
            return real(seed, index)

        monkeypatch.setattr(rng, "sample_stream", counted)
        rng.sum_chunks(self.chunk_sums, 70, 1)
        assert calls == list(range(70))

    def test_needs_positive_samples(self):
        with pytest.raises(ValidationError):
            rng.sum_chunks(self.chunk_sums, 0, 5)


class TestStatistics:
    def test_mean_and_stderr_against_numpy(self):
        values = rng.sample_rows(scalar_rows, 500, 2)
        m, se = rng.mean_and_stderr(values)
        assert m == pytest.approx(values.mean())
        assert se == pytest.approx(values.std(ddof=1) / np.sqrt(500))

    def test_single_sample_has_zero_stderr(self):
        m, se = rng.mean_and_stderr(np.array([4.0]))
        assert (m, se) == (4.0, 0.0)

    def test_from_sums_matches_per_sample_route(self):
        def fn(stream):
            return stream.normal(size=(2,)).astype(np.complex128)

        total, total_sq = accumulate_moments(fn, (2,), 300, 4)
        mean, stderr = rng.mean_and_stderr_from_sums(total, total_sq, 300)
        rows = np.array([fn(rng.sample_stream(4, i)) for i in range(300)])
        assert np.allclose(mean, rows.mean(axis=0))
        want_se = rows.std(axis=0, ddof=1) / np.sqrt(300)
        assert np.allclose(stderr, np.abs(want_se))

    def test_stderr_shrinks_like_inverse_sqrt(self):
        # quadrupling the sample count should roughly halve the standard error
        _, se_small = rng.mean_and_stderr(rng.sample_rows(scalar_rows, 2000, 6))
        _, se_big = rng.mean_and_stderr(rng.sample_rows(scalar_rows, 8000, 6))
        assert se_big == pytest.approx(se_small / 2, rel=0.15)

    def test_constant_samples_have_zero_stderr(self):
        values = np.full(50, 2.5)
        _, se = rng.mean_and_stderr(values)
        assert se == pytest.approx(0.0, abs=1e-15)
