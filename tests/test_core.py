import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recurq import (
    CodeSequence,
    DomainError,
    RqModel,
    encode,
    encode_batch,
    hard_quantize,
    pack_codes,
    packed_size,
    reconstruct_hard,
    reconstruct_soft,
    slice_prefix,
    soft_quantize,
    unpack_codes,
)
from recurq import core
from recurq.core import _forward, _level_books, _recurrence, _row_blocks, pack_rows, unpack_rows
from recurq.index import build_adc_table, database_from_codes, search


def random_model(rng, k=16, d=8, m=3, gamma=5.0):
    return RqModel(rng.normal(size=(k, d)), float(rng.uniform(0.2, 0.8)), gamma, m)


def stacked_encode(x, codebooks):
    """Explicit step-by-step quantization against a list of codebooks."""
    residual = np.asarray(x, dtype=np.float64).copy()
    indices = []
    for cb in codebooks:
        idx = int(np.argmin([np.linalg.norm(c - residual) for c in cb]))
        indices.append(idx)
        residual = residual - cb[idx]
    return np.array(indices)


class TestHardQuantize:
    def test_nearest_by_inspection(self):
        idx, cw = hard_quantize([0.9, 0.1], [[1.0, 0.0], [0.0, 1.0]])
        assert idx == 0
        assert np.array_equal(cw, [1.0, 0.0])

    def test_exact_codeword_hit(self):
        idx, cw = hard_quantize([0.0, 1.0], [[1.0, 0.0], [0.0, 1.0]])
        assert idx == 1
        assert np.linalg.norm(cw - np.array([0.0, 1.0])) == 0.0

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            k = int(rng.integers(1, 33))
            d = int(rng.integers(1, 9))
            cb = rng.normal(size=(k, d))
            x = rng.normal(size=d)
            idx, _ = hard_quantize(x, cb)
            oracle = int(np.argmin([np.linalg.norm(c - x) for c in cb]))
            assert idx == oracle

    def test_tie_breaks_to_smallest_index(self):
        idx, _ = hard_quantize([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        assert idx == 0

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            hard_quantize([np.nan, 0.0], [[1.0, 0.0]])


class TestSoftQuantize:
    def test_single_codeword(self):
        sa = soft_quantize([3.0, -1.0], [[0.5, 0.5]], gamma=7.0)
        assert np.allclose(sa.probs, [1.0])
        assert np.allclose(sa.expected, [0.5, 0.5])

    def test_symmetry(self):
        sa = soft_quantize([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]], gamma=2.5)
        assert np.allclose(sa.probs, [0.5, 0.5])
        assert np.allclose(sa.expected, [0.0, 0.0])

    def test_vanishing_sharpness_limit(self):
        rng = np.random.default_rng(3)
        cb = rng.normal(size=(6, 4))
        sa = soft_quantize(rng.normal(size=4), cb, gamma=1e-9)
        assert np.allclose(sa.probs, 1.0 / 6.0, atol=1e-6)
        assert np.allclose(sa.expected, cb.mean(axis=0), atol=1e-5)

    def test_large_gamma_matches_hard(self):
        rng = np.random.default_rng(4)
        checked = 0
        while checked < 100:
            cb = rng.normal(size=(8, 6))
            cb /= np.linalg.norm(cb, axis=1, keepdims=True)
            x = rng.normal(size=6)
            x /= np.linalg.norm(x)
            dists = np.sort(np.linalg.norm(cb - x, axis=1))
            if dists[1] - dists[0] < 1e-3:
                continue
            hard_idx, _ = hard_quantize(x, cb)
            sa = soft_quantize(x, cb, gamma=1e4)
            assert int(np.argmax(sa.probs)) == hard_idx
            checked += 1

    def test_probs_are_distribution(self):
        rng = np.random.default_rng(5)
        for gamma in (1e-6, 1.0, 1e3, 1e6):
            cb = rng.normal(size=(12, 5))
            sa = soft_quantize(rng.normal(size=5), cb, gamma)
            assert np.all(sa.probs >= 0)
            assert abs(sa.probs.sum() - 1.0) <= 1e-9

    def test_rejects_bad_gamma(self):
        with pytest.raises(DomainError, match="gamma must be finite and positive"):
            soft_quantize([0.0], [[1.0]], gamma=0.0)
        with pytest.raises(DomainError, match="gamma must be finite and positive"):
            soft_quantize([0.0], [[1.0]], gamma=-2.0)


def encode_reference(x, model):
    """encode's codes and trace from one _recurrence pass, with the per-level
    errors from np.cumsum of the partials: the arithmetic the shared forward
    replaced, which must give the same bits."""
    levels = list(_recurrence(x[None, :], _level_books(model), model.gamma))
    hard = np.concatenate([lv.hard for lv in levels])
    soft = np.concatenate([lv.soft for lv in levels])
    return np.concatenate([lv.idx for lv in levels]), {
        "states": np.concatenate([lv.h for lv in levels] + [levels[-1].h - levels[-1].hard]),
        "hard_partials": hard,
        "soft_partials": soft,
        "per_level_hard_err": np.linalg.norm(np.cumsum(hard, axis=0) - x, axis=1),
        "per_level_soft_err": np.linalg.norm(np.cumsum(soft, axis=0) - x, axis=1),
        "probs": np.concatenate([lv.probs for lv in levels]),
    }


def test_encode_equals_recomputing_reference():
    rng = np.random.default_rng(7)
    for _ in range(150):
        model = random_model(rng, k=1 << int(rng.integers(0, 9)), d=int(rng.integers(1, 65)),
                             m=int(rng.integers(1, 9)), gamma=float(rng.uniform(0.1, 100.0)))
        x = rng.normal(size=model.dim)
        codes, trace = encode(x, model)
        want_codes, want_trace = encode_reference(x, model)
        assert np.array_equal(codes.indices, want_codes)
        for name, want in want_trace.items():
            assert np.array_equal(getattr(trace, name), want), name


def test_quantizers_equal_training_forward_at_one_level():
    # hard_quantize and soft_quantize are the M=1 step of the recurrence, bit for bit
    rng = np.random.default_rng(6)
    for _ in range(300):
        model = random_model(rng, k=1 << int(rng.integers(0, 8)), d=int(rng.integers(1, 17)), m=1,
                             gamma=float(rng.uniform(0.1, 100.0)))
        x = rng.normal(size=model.dim)
        fw = _forward(x[None, :], model)
        idx, codeword = hard_quantize(x, model.codebook)
        sa = soft_quantize(x, model.codebook, model.gamma)
        assert idx == fw.codes[0, 0]
        assert np.array_equal(codeword, fw.hard_sums[0, 0])
        assert np.array_equal(sa.probs, fw.levels[0].probs[0])
        assert np.array_equal(sa.expected, fw.soft_sums[0, 0])


class TestEncode:
    def test_forced_two_level_example(self):
        model = RqModel([[1.0, 0.0], [0.0, 1.0]], 0.5, 20.0, 2)
        codes, trace = encode([1.5, 0.0], model)
        assert list(codes.indices) == [0, 0]
        assert np.allclose(trace.states[1], [0.5, 0.0])
        assert np.allclose(trace.states[2], [0.0, 0.0])
        assert trace.per_level_hard_err[1] == 0.0

    def test_exact_hit_single_level(self):
        model = RqModel([[0.3, -0.7], [2.0, 1.0]], 0.37, 10.0, 1)
        codes, trace = encode([2.0, 1.0], model)
        assert codes.indices[0] == 1
        assert trace.per_level_hard_err[0] == 0.0

    def test_matches_stacked_oracle(self):
        rng = np.random.default_rng(6)
        model = random_model(rng, k=16, d=8, m=3)
        for _ in range(200):
            x = rng.normal(size=8)
            codes, _ = encode(x, model)
            codebooks = [model.scale ** i * model.codebook for i in range(model.levels)]
            assert np.array_equal(codes.indices, stacked_encode(x, codebooks))

    def test_residual_telescoping(self):
        rng = np.random.default_rng(7)
        model = random_model(rng, k=8, d=6, m=4)
        x = rng.normal(size=6)
        codes, trace = encode(x, model)
        for m in range(1, 5):
            recon = reconstruct_hard(codes, model, m)
            assert np.allclose(x - recon, trace.states[m], rtol=1e-10, atol=1e-12)

    def test_dimension_mismatch(self):
        model = RqModel([[1.0, 0.0], [0.0, 1.0]], 0.5, 20.0, 2)
        with pytest.raises(DomainError, match="x width 3 does not match model dim 2"):
            encode([1.0, 2.0, 3.0], model)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, k=8, d=5, m=3)
        x = rng.normal(size=(50, 5))
        batch_codes = encode_batch(x, model)
        for i in range(50):
            codes, _ = encode(x[i], model)
            assert np.array_equal(batch_codes[i], codes.indices)

    def test_batch_across_row_blocks(self):
        # K=1024 encodes 64 rows per block: 150 rows span three blocks
        rng = np.random.default_rng(12)
        model = random_model(rng, k=1024, d=5, m=3)
        x = rng.normal(size=(150, 5))
        batch_codes = encode_batch(x, model)
        assert np.array_equal(batch_codes[37:], encode_batch(x[37:], model))
        for i in range(150):
            codes, _ = encode(x[i], model)
            assert np.array_equal(batch_codes[i], codes.indices)

    def test_ties_break_to_smallest_index_on_every_path(self):
        # rows 5 and 700 are one codeword; rows 3 and 900 are equidistant from 0.
        # Their entries are dyadic, so the tied distances are exact and equal.
        rng = np.random.default_rng(13)
        cb = rng.normal(size=(1024, 4))
        cb *= 16.0 / np.linalg.norm(cb, axis=1, keepdims=True)
        cb[[5, 700]] = [2.0, 0.0, 0.0, 0.0]
        cb[3], cb[900] = [0.0, 1.0, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]
        model = RqModel(cb, 0.5, 5.0, 2)
        x = np.zeros((150, 4))
        x[1::2, 0] = 2.0  # hits the duplicate, then leaves a zero residual
        expected = np.where(x[:, :1] == 0.0, [3, 900], [5, 3])
        # K=1024 encodes 64 rows per block: 150 rows span three blocks
        assert np.array_equal(encode_batch(x, model), expected)
        assert np.array_equal(_forward(x, model).codes, expected)
        for i in (0, 1, 64, 127, 149):
            assert np.array_equal(encode(x[i], model)[0].indices, expected[i])


def per_level_gemm_codes(x, model):
    """Codes from the hard path of _recurrence over _level_books, one
    (rows, D) x (D, K) product per level and row block."""
    codes = np.empty((x.shape[0], model.levels), dtype=np.int64)
    books = _level_books(model)
    for rows in _row_blocks(x.shape[0], model.k):
        for i, lv in enumerate(_recurrence(x[rows], books)):
            codes[rows, i] = lv.idx
    return codes


@settings(max_examples=150, deadline=None)
@given(bits=st.integers(1, 10), d=st.integers(1, 24), m=st.integers(1, 8), n=st.integers(1, 90),
       w=st.one_of(st.floats(0.05, 0.95), st.floats(1.05, 3.0)), seed=st.integers(0, 2 ** 32 - 1),
       duplicates=st.integers(0, 3), hits=st.integers(0, 30), gram=st.booleans())
def test_encode_batch_equals_per_level_gemm(bits, d, m, n, w, seed, duplicates, hits, gram):
    # Rows that are codewords leave a zero residual after level 1, as serve's
    # codebook of base rows does; duplicated codewords are exact ties. Both sides
    # of the Gram-table size rule run: gram=False forces product-built Gram rows.
    rng = np.random.default_rng(seed)
    k = 1 << bits
    cb = rng.normal(size=(k, d))
    for _ in range(duplicates):
        cb[rng.integers(k)] = cb[rng.integers(k)]
    x = rng.normal(size=(n, d))
    x[:hits] = cb[rng.integers(k, size=min(hits, n))]
    model = RqModel(cb, w, 5.0, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_GRAM_MAX_K", k if gram else k - 1)
        assert np.array_equal(encode_batch(x, model), per_level_gemm_codes(x, model))


@pytest.mark.parametrize("k, d, n, w", [(2048, 32, 100, 0.4), (2048, 8, 100, 1.3), (1 << 16, 8, 1, 0.8),
                                        (1 << 16, 8, 3, 0.4), (1 << 16, 16, 10, 1.3)])
def test_encode_batch_equals_per_level_gemm_above_gram_bound(k, d, n, w):
    # A real K above the Gram-table bound: each level's Gram rows come from one
    # product. K=2048 encodes 32 rows per block, so 100 rows span four blocks.
    # Half the rows are duplicated codewords: an exact tie at level 1, then a
    # residual that is zero or within rounding of it.
    assert k > core._GRAM_MAX_K
    rng = np.random.default_rng(k + n)
    cb = rng.normal(size=(k, d))
    src, dst = rng.integers(k, size=(2, 20))
    cb[dst] = cb[src]
    x = rng.normal(size=(n, d))
    x[::2] = cb[rng.choice(dst, size=len(x[::2]))]
    model = RqModel(cb, w, 5.0, 8)
    assert np.array_equal(encode_batch(x, model), per_level_gemm_codes(x, model))


def test_encode_memory_above_gram_bound_does_not_grow_with_levels_times_k():
    # K=2^16, D=64, M=8: M scaled copies of the 32 MB codebook would take 256 MB
    rng = np.random.default_rng(72)
    model = RqModel(rng.normal(size=(1 << 16, 64)), 0.8, 5.0, 8)
    x = rng.normal(size=(10, 64))
    tracemalloc.start()
    try:
        codes = encode_batch(x, model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codes.shape == (10, 8)
    assert peak < 16 << 20


def test_duplicate_codewords_tie_to_smallest_index_after_zero_residual():
    # Non-dyadic entries: after a codeword hit the product form's residual is
    # exactly 0, the Gram form's dot products only within rounding. The least
    # norm is held twice (rows 1 and 6), so every later level ties.
    rng = np.random.default_rng(15)
    cb = rng.normal(size=(8, 5))
    cb[1] *= 0.1
    cb[6] = cb[1]
    cb[3] = cb[4]
    model = RqModel(cb, 0.3, 5.0, 3)
    x = cb[[4, 3, 6, 1, 0]]
    got = encode_batch(x, model)
    assert np.array_equal(got, per_level_gemm_codes(x, model))
    assert np.array_equal(got[:, 0], [3, 3, 1, 1, 0])
    assert np.all(got[:, 1:] == 1)


class TestReconstruct:
    def test_prefix_example(self):
        model = RqModel([[1.0, 0.0], [0.0, 1.0]], 0.5, 20.0, 2)
        codes = CodeSequence(np.array([0, 0]))
        assert np.allclose(reconstruct_hard(codes, model, 1), [1.0, 0.0])
        assert np.allclose(reconstruct_hard(codes, model, 2), [1.5, 0.0])

    def test_level_one_is_unscaled_codeword(self):
        rng = np.random.default_rng(9)
        model = random_model(rng, k=8, d=4, m=3)
        codes, _ = encode(rng.normal(size=4), model)
        assert np.array_equal(
            reconstruct_hard(codes, model, 1), model.codebook[codes.indices[0]]
        )

    def test_matches_stacked_sum(self):
        rng = np.random.default_rng(10)
        model = random_model(rng, k=16, d=6, m=4)
        for _ in range(50):
            codes = CodeSequence(rng.integers(0, 16, size=4))
            expected = sum(
                model.scale ** i * model.codebook[codes.indices[i]] for i in range(4)
            )
            assert np.allclose(reconstruct_hard(codes, model, 4), expected)

    def test_index_out_of_range(self):
        model = RqModel([[1.0, 0.0], [0.0, 1.0]], 0.5, 20.0, 2)
        with pytest.raises(DomainError, match=r"sub-index out of range \[0, 2\)"):
            reconstruct_hard(CodeSequence(np.array([0, 5])), model, 2)

    def test_soft_approaches_hard_with_gamma(self):
        rng = np.random.default_rng(11)
        cb = rng.normal(size=(8, 5))
        x = rng.normal(size=5)
        gaps = []
        for gamma in (1.0, 10.0, 100.0, 1e4):
            model = RqModel(cb, 0.5, gamma, 3)
            codes, trace = encode(x, model)
            gap = np.linalg.norm(
                reconstruct_soft(trace, 3) - reconstruct_hard(codes, model, 3)
            )
            gaps.append(gap)
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_soft_equals_hard_single_codeword(self):
        model = RqModel(np.array([[0.4, -0.2, 0.9]]), 0.6, 3.0, 3)
        codes, trace = encode(np.array([1.0, 1.0, 1.0]), model)
        for m in range(1, 4):
            assert np.allclose(
                reconstruct_soft(trace, m), reconstruct_hard(codes, model, m)
            )

    def test_soft_level_out_of_range(self):
        model = RqModel([[1.0, 0.0], [0.0, 1.0]], 0.5, 20.0, 2)
        _, trace = encode([0.5, 0.5], model)
        with pytest.raises(DomainError, match=r"level 3 out of range \[1, 2\]"):
            reconstruct_soft(trace, 3)


def test_reconstruct_hard_equals_encoder_running_sum():
    # the decoder adds the same weighted codewords in the same order as the encoder
    rng = np.random.default_rng(130)
    for _ in range(200):
        model = RqModel(rng.normal(size=(8, 6)), float(rng.uniform(0.1, 1.5)), 5.0, int(rng.integers(3, 9)))
        codes, trace = encode(rng.normal(size=6), model)
        sums = np.cumsum(trace.hard_partials, axis=0)
        for m in range(1, model.levels + 1):
            assert np.array_equal(reconstruct_hard(codes, model, m), sums[m - 1])


def test_reconstruct_hard_code_longer_than_model():
    # the level weights follow the code's length, not the model's level count
    model = RqModel(np.eye(4), 0.5, 5.0, 2)
    recon = reconstruct_hard(CodeSequence(np.arange(4)), model, 4)
    assert np.array_equal(recon, [1.0, 0.5, 0.25, 0.125])


class TestPacking:
    def test_byte_aligned(self):
        packed = pack_codes(CodeSequence(np.array([255, 0, 17, 3])), 256)
        assert packed == bytes([0xFF, 0x00, 0x11, 0x03])

    def test_nibble_packing(self):
        packed = pack_codes(CodeSequence(np.array([1, 2, 3, 4])), 16)
        assert packed == bytes([0x12, 0x34])

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        for k in (16, 64, 256, 2048):
            for _ in range(250):
                m = int(rng.integers(1, 9))
                codes = CodeSequence(rng.integers(0, k, size=m))
                packed = pack_codes(codes, k)
                assert len(packed) == packed_size(m, k)
                back = unpack_codes(packed, m, k)
                assert np.array_equal(back.indices, codes.indices)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(DomainError):
            pack_codes(CodeSequence(np.array([1, 2])), 10)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(DomainError):
            pack_codes(CodeSequence(np.array([16])), 16)


def reference_pack_rows(codes: np.ndarray, k: int) -> bytes:
    """Per-row big-integer packer: the layout pack_rows must reproduce."""
    bits = k.bit_length() - 1
    record = (codes.shape[1] * bits + 7) // 8
    out = bytearray()
    for row in codes:
        value = 0
        for i in row:
            value = (value << bits) | int(i)
        value <<= record * 8 - codes.shape[1] * bits
        out += value.to_bytes(record, "big")
    return bytes(out)


@settings(max_examples=300, deadline=None)
@given(bits=st.integers(1, 16), m=st.integers(1, 16), n=st.integers(0, 6), data=st.data())
def test_pack_rows_matches_reference(bits, m, n, data):
    k = 1 << bits
    rows = data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=m, max_size=m), min_size=n, max_size=n))
    codes = np.array(rows, dtype=np.int64).reshape(n, m)
    packed = pack_rows(codes, k)
    assert packed.shape == (n, packed_size(m, k))
    assert packed.tobytes() == reference_pack_rows(codes, k)
    assert np.array_equal(unpack_rows(packed, m, k), codes)


@pytest.mark.parametrize("k", [256, 1 << 16])
@pytest.mark.parametrize("n", [0, 1, 700])
def test_byte_aligned_unpack_rows(k, n):
    # whole-byte sub-indices are read as big-endian words, straight into column-major int64
    rng = np.random.default_rng(n)
    codes = rng.integers(0, k, size=(n, 5))
    codes[:1], codes[1:2] = 0, k - 1
    packed = pack_rows(codes, k)
    assert packed.tobytes() == reference_pack_rows(codes, k)
    back = unpack_rows(packed, 5, k)
    assert back.dtype == np.int64 and back.flags.f_contiguous
    assert np.array_equal(back, codes)


def test_pack_rows_rejects_out_of_range():
    for bad in (np.array([[0, 16]]), np.array([[-1, 0]])):
        with pytest.raises(DomainError, match=r"sub-index out of range \[0, 16\)"):
            pack_rows(bad, 16)


class TestSlicePrefix:
    def test_identity_at_full_length(self):
        codes = CodeSequence(np.array([5, 7, 1]))
        assert np.array_equal(slice_prefix(codes, 3).indices, codes.indices)

    def test_single_level(self):
        assert list(slice_prefix(CodeSequence(np.array([5, 7, 1])), 1).indices) == [5]

    def test_prefix_equals_reencode(self):
        rng = np.random.default_rng(13)
        model = random_model(rng, k=16, d=8, m=4)
        for _ in range(300):
            x = rng.normal(size=8)
            full, _ = encode(x, model)
            for m in (1, 2, 3):
                short, _ = encode(x, model.with_levels(m))
                assert np.array_equal(slice_prefix(full, m).indices, short.indices)

    def test_out_of_range(self):
        with pytest.raises(DomainError, match=r"level 3 out of range \[1, 2\]"):
            slice_prefix(CodeSequence(np.array([1, 2])), 3)

    def test_prefix_equals_reencode_above_unit_scale(self):
        # w > 1 is a valid model: each level's codebook is larger than the last
        rng = np.random.default_rng(14)
        model = RqModel(rng.normal(size=(16, 8)), 1.5, 5.0, 4)
        x = rng.normal(size=(300, 8))
        full = encode_batch(x, model)
        for m in (1, 2, 3):
            assert np.array_equal(full[:, :m], encode_batch(x, model.with_levels(m)))
        for row, codes in zip(x[:20], full):
            short, _ = encode(row, model.with_levels(2))
            assert np.array_equal(slice_prefix(CodeSequence(codes), 2).indices, short.indices)


class TestModelInvariants:
    def test_param_count_independent_of_levels(self):
        rng = np.random.default_rng(14)
        cb = rng.normal(size=(256, 32))
        for m in range(1, 7):
            model = RqModel(cb, 0.5, 20.0, m)
            assert model.param_count == 256 * 32 + 1

    def test_code_bits(self):
        cb = np.zeros((256, 4)) + np.eye(256, 4)
        assert RqModel(cb, 0.5, 20.0, 4).code_bits == 32

    def test_rejects_bad_scale_gamma(self):
        cb = [[1.0, 0.0], [0.0, 1.0]]
        with pytest.raises(DomainError, match="scale must be finite and positive"):
            RqModel(cb, -0.5, 20.0, 1)
        with pytest.raises(DomainError, match="gamma must be finite and positive"):
            RqModel(cb, 0.5, 0.0, 1)

    def test_rejects_non_power_of_two_codebook(self):
        with pytest.raises(DomainError, match="K=3 must be a power of two >= 1"):
            RqModel(np.zeros((3, 2)), 0.5, 20.0, 1)

    def test_holds_more_codewords_than_stored_codes(self):
        # the 2^16 bound is the code file's: a model in memory may be larger
        assert RqModel(np.zeros((1 << 17, 1)), 0.5, 20.0, 2).code_bits == 34

    def test_rejects_zero_dimension(self):
        with pytest.raises(DomainError, match="dimension"):
            RqModel(np.zeros((4, 0)), 0.5, 20.0, 1)


@settings(max_examples=200, deadline=None)
@given(bits=st.integers(1, 16), m=st.integers(1, 8), n=st.integers(0, 6), layout=st.sampled_from(["F", "sliced"]),
       data=st.data())
def test_pack_rows_any_memory_layout(bits, m, n, layout, data):
    # F-order and column-sliced views pack like the C-order array holding the same values
    k = 1 << bits
    wide = m * (2 if layout == "sliced" else 1)
    rows = data.draw(st.lists(st.lists(st.integers(0, k - 1), min_size=wide, max_size=wide), min_size=n, max_size=n))
    full = np.array(rows, dtype=np.int64).reshape(n, wide)
    codes = np.asfortranarray(full) if layout == "F" else full[:, ::2]
    packed = pack_rows(codes, k)
    assert packed.tobytes() == reference_pack_rows(np.ascontiguousarray(codes), k)
    assert np.array_equal(unpack_rows(packed, m, k), codes)



def _rule_cases():
    model = RqModel(np.eye(4), 0.5, 5.0, 2)
    db = database_from_codes(np.zeros((3, 2), dtype=np.int64), model)
    code = CodeSequence(np.array([1, 2]))
    _, trace = encode(np.ones(4), model)
    width = "width 3 does not match model dim 4"
    return {
        "encode_batch-width": (lambda: encode_batch(np.ones((2, 3)), model), f"data {width}"),
        "hard_quantize-width": (lambda: hard_quantize(np.ones(3), np.eye(4)), f"x {width}"),
        "build_adc_table-width": (lambda: build_adc_table(np.ones(3), model), f"query {width}"),
        "search-width": (lambda: search(np.ones(3), db, 1), f"query {width}"),
        "reconstruct_hard-level": (lambda: reconstruct_hard(code, model, 0), r"level 0 out of range \[1, 2\]"),
        "reconstruct_soft-level": (lambda: reconstruct_soft(trace, 0), r"level 0 out of range \[1, 2\]"),
        "slice_prefix-level": (lambda: slice_prefix(code, 0), r"level 0 out of range \[1, 2\]"),
        "packed_size-k": (lambda: packed_size(2, 1), "K=1 must be a power of two >= 2"),
        "packed_size-k-above-stored-max": (lambda: packed_size(2, 1 << 17), "K=131072 exceeds 65536"),
        "pack_rows-k-above-stored-max": (lambda: pack_rows(np.zeros((1, 2), dtype=np.int64), 1 << 17),
                                         "K=131072 exceeds 65536"),
        "unpack_rows-k-above-stored-max": (lambda: unpack_rows(np.zeros((1, 5), dtype=np.uint8), 2, 1 << 17),
                                           "K=131072 exceeds 65536"),
    }


RULE_CASES = _rule_cases()


@pytest.mark.parametrize("call, message", RULE_CASES.values(), ids=list(RULE_CASES))
def test_entry_points_share_each_input_rule(call, message):
    # every entry point reports a rule in the words of the rule's one home
    with pytest.raises(DomainError, match=message):
        call()
