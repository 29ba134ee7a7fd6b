import io
import struct
import warnings

import numpy as np
import pytest

from graphtransducer import (
    PosteriorTensor,
    load_posterior_tensor,
    read_tensor,
    write_tensor,
)
from graphtransducer.posteriors import _BLOCK_BYTES, _READ_CHUNK_BYTES, _logsumexp


def test_logprob_rows_are_normalized():
    rng = np.random.default_rng(0)
    post = PosteriorTensor(rng.normal(0, 3, (5, 2, 4)))
    totals = np.exp(post.logprobs).sum(axis=-1)
    assert np.abs(totals - 1.0).max() < 1e-9


def test_normalizing_logprobs_is_idempotent():
    rng = np.random.default_rng(1)
    post = PosteriorTensor(rng.normal(0, 1, (3, 2, 3)))
    again = PosteriorTensor(post.logprobs)
    assert np.allclose(again.logprobs, post.logprobs, atol=1e-12)


@pytest.mark.parametrize("shape", [(2,), (3, 3), (1, 1, 1, 1)])
def test_rejects_wrong_rank(shape):
    with pytest.raises(ValueError, match="shape"):
        PosteriorTensor(np.zeros(shape))


def test_rejects_nonfinite_logits():
    bad = np.zeros((2, 1, 2))
    bad[0, 0, 0] = np.inf
    with pytest.raises(ValueError, match="finite"):
        PosteriorTensor(bad)


# STEP frames of float64 logits fill one block of the constructor's normalizer pass
STATES, VOCAB = 3, 50
STEP = _BLOCK_BYTES // (STATES * VOCAB * 8)


@pytest.mark.parametrize(
    "frames, states, vocab",
    [
        (1, STATES, VOCAB),
        (STEP, STATES, VOCAB),
        (STEP + 1, STATES, VOCAB),
        (3 * STEP + 2, STATES, VOCAB),
        # one frame is larger than a block, so each block is one frame
        (3, 2, _BLOCK_BYTES // 16 + 1),
    ],
)
def test_blocked_normalizer_equals_dense_bit_for_bit(frames, states, vocab):
    logits = np.random.default_rng(frames).normal(0, 4, (frames, states, vocab))
    post = PosteriorTensor(logits)
    dense = _logsumexp(logits)
    assert post.lse.shape == (frames, states, 1)
    assert np.array_equal(post.lse, dense)
    assert np.array_equal(post.logprobs, logits - dense)


def _logsumexp_with_zeroed_peaks(x):
    # the earlier form: peaks start at -inf, and a -inf peak is set to 0 after the max
    peak = np.max(x, axis=-1, keepdims=True, initial=-np.inf)
    peak[peak == -np.inf] = 0.0
    shifted = np.subtract(x, peak)
    total = np.exp(shifted, out=shifted).sum(axis=-1, keepdims=True)
    return peak + np.log(total, out=np.full_like(total, -np.inf), where=total > 0.0)


@pytest.mark.parametrize("scale", [1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3])
def test_lowest_peaks_equal_zeroed_neg_inf_peaks_bit_for_bit(scale):
    # rows all -inf, partly -inf and finite; then an empty last axis and 1-D rows
    rng = np.random.default_rng(36)
    rows = rng.normal(0, scale, (3, 40, 7))
    rows[0] = -np.inf
    rows[1][rng.random((40, 7)) < 0.5] = -np.inf
    cases = [rows, np.empty((4, 0)), np.empty(0), rows[2, 0], rows[1].ravel(), np.full(3, -np.inf)]
    for x in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, want = _logsumexp(x), _logsumexp_with_zeroed_peaks(x)
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.all(_logsumexp(rows[0]) == -np.inf)
    assert np.all(_logsumexp(np.empty((4, 0))) == -np.inf) and _logsumexp(np.empty(0))[0] == -np.inf
    assert np.array_equal(np.isfinite(_logsumexp(rows[1]))[:, 0], np.isfinite(rows[1]).any(axis=-1))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nonfinite_logit_in_last_block_is_rejected(bad):
    logits = np.zeros((3 * STEP + 2, STATES, VOCAB))
    logits[-1, -1, -1] = bad
    with pytest.raises(ValueError, match="finite"):
        PosteriorTensor(logits)


def test_logits_are_read_only_and_not_copied():
    logits = np.random.default_rng(3).normal(0, 1, (4, 2, 3))
    post = PosteriorTensor(logits)
    assert np.shares_memory(post.logits, logits)
    # lse was computed from these values, so a write would give a wrong loss
    with pytest.raises(ValueError, match="read-only"):
        post.logits[0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        post.lse[0, 0, 0] = 1.0


def test_logprobs_are_built_on_first_read_only():
    post = PosteriorTensor(np.zeros((2, 2, 4)))
    assert "logprobs" not in post.__dict__
    assert post.logprobs is post.logprobs
    assert np.all(post.logprobs == -np.log(4.0))


@pytest.mark.parametrize("shape", [(4,), (3, 2), (2, 3, 4)])
def test_tensor_file_round_trip(tmp_path, shape):
    rng = np.random.default_rng(2)
    arr = rng.normal(0, 1, shape)
    path = tmp_path / "t.bin"
    write_tensor(path, arr)
    back = read_tensor(path)
    assert back.shape == arr.shape
    assert np.array_equal(back, arr)


def test_tensor_round_trip_through_stream():
    buf = io.BytesIO()
    a = np.arange(6, dtype=float).reshape(2, 3)
    b = np.arange(4, dtype=float)
    write_tensor(buf, a)
    write_tensor(buf, b)
    buf.seek(0)
    assert np.array_equal(read_tensor(buf), a)
    assert np.array_equal(read_tensor(buf), b)


def test_read_rejects_bad_magic():
    with pytest.raises(ValueError, match="magic"):
        read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 20))


def test_read_rejects_truncated_payload():
    buf = io.BytesIO()
    write_tensor(buf, np.ones((2, 2)))
    data = buf.getvalue()[:-8]
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(io.BytesIO(data))


# A corrupt header must not make one read of the size it claims, whose
# MemoryError no caller handles, and a count past int64 must not wrap to 0.
@pytest.mark.parametrize("dims", [(2**20, 2**20, 2**10), (2**31, 2**31, 4)], ids=["2^50", "2^64"])
@pytest.mark.parametrize("source", ["path", "stream"])
def test_read_rejects_a_header_claiming_more_values_than_the_file_holds(tmp_path, dims, source):
    raw = struct.pack("<4s5I", b"GTCT", 1, 3, *dims) + b"\x00" * 64
    path = tmp_path / "t.bin"
    path.write_bytes(raw)
    with pytest.raises(ValueError, match="truncated tensor file while reading values"):
        read_tensor(path if source == "path" else io.BytesIO(raw))


def test_payload_longer_than_one_read_round_trips_and_truncates():
    arr = np.arange(_READ_CHUNK_BYTES // 8 * 2 + 3, dtype=float)
    buf = io.BytesIO()
    write_tensor(buf, arr)
    assert np.array_equal(read_tensor(io.BytesIO(buf.getvalue())), arr)
    with pytest.raises(ValueError, match="truncated"):
        read_tensor(io.BytesIO(buf.getvalue()[:-8]))


def test_load_posterior_tensor_checks_rank(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(path, np.zeros((2, 2)))
    with pytest.raises(ValueError, match="rank 3"):
        load_posterior_tensor(path)
    write_tensor(path, np.zeros((2, 2, 2)))
    assert load_posterior_tensor(path).num_frames == 2


def test_format_layout_is_exactly_as_documented(tmp_path):
    path = tmp_path / "t.bin"
    write_tensor(path, np.array([[1.0, 2.0], [3.0, 4.0]]))
    raw = path.read_bytes()
    assert raw[:4] == b"GTCT"
    assert int.from_bytes(raw[4:8], "little") == 1  # version
    assert int.from_bytes(raw[8:12], "little") == 2  # rank
    assert int.from_bytes(raw[12:16], "little") == 2
    assert int.from_bytes(raw[16:20], "little") == 2
    assert np.frombuffer(raw[20:], dtype="<f8").tolist() == [1.0, 2.0, 3.0, 4.0]


def test_a_member_is_a_read_only_view_of_its_pack():
    pack = PosteriorTensor(np.random.default_rng(9).normal(0, 1, (5, 7, 3)))
    member = pack.member(4, 2, 3)
    assert member.logits.shape == (4, 3, 3) and member.lse.shape == (4, 3, 1)
    for mine, packs in ((member.logits, pack.logits), (member.lse, pack.lse)):
        assert np.shares_memory(mine, packs) and not mine.flags.writeable
    assert np.array_equal(member.logits, pack.logits[:4, 2:5])
    assert np.array_equal(member.lse, PosteriorTensor(pack.logits[:4, 2:5]).lse)


@pytest.mark.parametrize("frames, first, states", [(0, 0, 1), (6, 0, 1), (1, 0, 0), (1, -1, 2), (1, 6, 2)])
def test_a_member_outside_its_pack_is_rejected(frames, first, states):
    with pytest.raises(ValueError, match="a member takes"):
        PosteriorTensor(np.zeros((5, 7, 3))).member(frames, first, states)
