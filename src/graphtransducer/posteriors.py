"""Per-utterance posterior tensors and their binary on-disk format."""

from __future__ import annotations

import math
import os
import struct
from functools import cached_property
from typing import BinaryIO

import numpy as np

TENSOR_MAGIC = b"GTCT"
TENSOR_VERSION = 1

NEG_INF = float("-inf")
_LOWEST = -np.finfo(np.float64).max  # no finite float is lower

# bytes of logits per block of frames in a pass over a tensor
_BLOCK_BYTES = 512 * 1024
# R: a tensor whose logits all lie in [-R, R] is normalized with no row
# peak shifted out.  R = 600 is safe on three counts:
# - every exp(h) is a normal float: exp(-600) is about 2.7e-261 and
#   exp(600) about 3.8e260, inside [DBL_MIN, DBL_MAX] = [2.2e-308, 1.8e308];
# - no row sum overflows: it is at most V * exp(600), and V would need
#   4.7e47 labels to reach DBL_MAX;
# - the gradient's scale occ(t, i) / total, with occ(t, i) <= 1, underflows
#   only when occ(t, i) < total * DBL_MIN, and total is at most V shifted
#   but V * exp(R) unshifted.  Every gradient entry exp(h) * occ(t, i) /
#   total that such a scale rounds is below exp(R) * DBL_MIN = 8.4e-48 in
#   size, far under the oracle's 1e-10 tolerance.
_UNSHIFTED_RANGE = 600.0
# largest single read of a tensor file's payload
_READ_CHUNK_BYTES = 1 << 20


def _logsumexp(x: np.ndarray, exps: np.ndarray | None = None,
               total: np.ndarray | None = None) -> np.ndarray:
    """log(sum(exp(x))) over the last axis, which is kept with length 1.

    The row peak is shifted out first, so large magnitudes neither
    overflow nor underflow: the tensor's normalizer runs this past its
    unshifted range, as do the arrays that may hold -inf.  Peaks start at
    ``_LOWEST``, not -inf, so a row with a finite entry gets its own
    maximum and no shift computes -inf - -inf; a row that is empty or all
    -inf sums to 0 and gives -inf without a floating-point warning.  ``exps`` and ``total``, when given,
    receive the exponentials exp(x - peak) and their row sums, which the
    result is the log of plus the peak; without them both are temporaries.
    """
    peak = np.max(x, axis=-1, keepdims=True, initial=_LOWEST)
    shifted = np.subtract(x, peak, out=exps)
    total = np.exp(shifted, out=shifted).sum(axis=-1, keepdims=True, out=total)
    return peak + np.log(total, out=np.full_like(total, NEG_INF), where=total > 0.0)


def _unshifted_logsumexp(x: np.ndarray, exps: np.ndarray | None = None,
                         total: np.ndarray | None = None) -> np.ndarray:
    """:func:`_logsumexp` with no peak shifted out: log(sum(exp(x))) over
    the last axis, kept with length 1, for finite ``x`` within
    ``_UNSHIFTED_RANGE`` of 0, where neither the exponentials nor their
    sums can overflow or underflow.  ``exps`` and ``total``, when given,
    receive exp(x) and its row sums."""
    return np.log(np.exp(x, out=exps).sum(axis=-1, keepdims=True, out=total))


def _blocks(logits: np.ndarray) -> list[slice]:
    """The frame slices of the blocks a pass over ``logits`` takes: about
    ``_BLOCK_BYTES`` of logits each, and at least one frame."""
    step = max(1, _BLOCK_BYTES // logits[0].nbytes)
    return [slice(lo, lo + step) for lo in range(0, len(logits), step)]


class PosteriorTensor:
    """Label scores indexed (frame t, decoder state i, label k).

    ``logits`` holds the raw scores h[t, i, k], and ``lse`` their log
    normalizer logsumexp_k h[t, i, k], shape (T, S, 1).  The constructor
    checks the shape and takes the smallest and largest logit, which must
    be finite, so a bad tensor raises there (a -inf logit would not show
    in ``lse``); the two also say whether every logit lies within
    ``_UNSHIFTED_RANGE`` of 0.  It does not copy an input that is already
    C-contiguous float64, so ``logits`` is a view of it and the caller
    must not write to it afterwards.  ``lse`` comes from the first pass
    that needs it: the loss's pass, which also writes the exponentials
    that become its gradient, or an ``lse``-only pass on the first read
    of ``lse``.  In range, both take no row peak: lse = log(sum_k
    exp(h)), which is also the more accurate form, since a shift rounds
    h - peak before ``exp`` amplifies that rounding.  Out of range, both
    shift each row's peak out first (:func:`_logsumexp`).  Both passes run
    the same normalizer over the same blocks, so ``lse`` has the same
    bits either way.  Both arrays are read-only, as a write to either would
    give a finite wrong loss.  ``logprobs``, the log-softmax
    ``logits - lse`` whose (t, i) rows each sum to one in probability
    space, is built on first read and then kept; the loss never builds it.
    Frames are 1-based in the math and 0-based in the arrays: row
    ``logprobs[t - 1, i]`` scores frame t.

    One tensor can hold a batch of one vocabulary side by side on the
    state axis, as :func:`~graphtransducer.model.train_step` lays out its
    logits and :func:`~graphtransducer.loss.batch_loss_and_grad` lays out
    each vocabulary's members, so one normalizer pass serves every
    utterance of it; the loss owns that layout and scores one tensor per
    call.
    """

    def __init__(self, logits):
        logits = np.ascontiguousarray(np.asarray(logits, dtype=np.float64))
        if logits.ndim != 3:
            raise ValueError(f"logits must have shape (T, states, vocab); got {logits.shape}")
        if min(logits.shape) < 1:
            raise ValueError(f"all logits dimensions must be positive; got {logits.shape}")
        # both reductions propagate NaN, so two finite bounds mean finite logits
        lo, hi = float(logits.min()), float(logits.max())
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("logits must be finite")
        self._in_range = -_UNSHIFTED_RANGE <= lo and hi <= _UNSHIFTED_RANGE
        self.logits = logits.view()
        self.logits.flags.writeable = False
        self._lse: np.ndarray | None = None

    @property
    def lse(self) -> np.ndarray:
        if self._lse is None:
            self._normalize()
        return self._lse

    def _normalize(self, exps: np.ndarray | None = None):
        """``(lse, total)`` from one pass over the logits, a block of frames
        at a time so the temporaries stay in cache.  When every logit lies
        within ``_UNSHIFTED_RANGE`` of 0, the pass takes no row peak: it
        exponentiates h, sums each row into ``total`` and takes
        lse = log(total) (:func:`_unshifted_logsumexp`).  Otherwise it runs
        the shifted :func:`_logsumexp`, with exp(h - peak) and
        lse = peak + log(total).  With ``exps``, an array of the logits'
        shape, those exponentials are written there and ``total`` holds
        their row sums; without it ``total`` is None.  The first pass keeps
        its ``lse``."""
        lse = np.empty(self.logits.shape[:2] + (1,))
        total = None if exps is None else np.empty_like(lse)
        normalizer = _unshifted_logsumexp if self._in_range else _logsumexp
        for rows in _blocks(self.logits):
            outs = () if exps is None else (exps[rows], total[rows])
            lse[rows] = normalizer(self.logits[rows], *outs)
        if self._lse is None:
            lse.flags.writeable = False
            self._lse = lse
        return lse, total

    @cached_property
    def logprobs(self) -> np.ndarray:
        return self.logits - self.lse

    @property
    def num_frames(self) -> int:
        return self.logits.shape[0]

    @property
    def num_states(self) -> int:
        return self.logits.shape[1]

    @property
    def vocab_size(self) -> int:
        return self.logits.shape[2]

    def __repr__(self) -> str:
        return (
            f"PosteriorTensor(frames={self.num_frames}, states={self.num_states}, "
            f"vocab={self.vocab_size})"
        )


def write_tensor(file: BinaryIO | str | os.PathLike, arr: np.ndarray) -> None:
    """Write an array in the binary tensor format: magic "GTCT", u32
    version, u32 rank, u32 dims, then float64 values row-major, all
    little-endian."""
    # not np.ascontiguousarray, which makes a rank-0 array rank 1;
    # tobytes(order="C") writes any layout row-major
    arr = np.asarray(arr, dtype=np.float64)
    if arr.ndim < 1 or min(arr.shape) < 1:
        raise ValueError(f"tensor must have rank >= 1 with positive dims; got shape {arr.shape}")
    header = struct.pack("<4sII", TENSOR_MAGIC, TENSOR_VERSION, arr.ndim)
    header += struct.pack(f"<{arr.ndim}I", *arr.shape)
    payload = arr.astype("<f8", copy=False).tobytes(order="C")
    if hasattr(file, "write"):
        file.write(header)
        file.write(payload)
    else:
        with open(file, "wb") as fh:
            fh.write(header)
            fh.write(payload)


def read_tensor(file: BinaryIO | str | os.PathLike) -> np.ndarray:
    """Read one tensor written by :func:`write_tensor`."""
    if hasattr(file, "read"):
        return _read_tensor(file)
    with open(file, "rb") as fh:
        return _read_tensor(fh)


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytearray:
    # read in bounded chunks: a corrupt header may claim far more bytes
    # than the file holds, and must not make one read of that size
    data = bytearray()
    while len(data) < count:
        chunk = fh.read(min(count - len(data), _READ_CHUNK_BYTES))
        if not chunk:
            raise ValueError(f"truncated tensor file while reading {what}")
        data += chunk
    return data


def _read_tensor(fh: BinaryIO) -> np.ndarray:
    magic, version, rank = struct.unpack("<4sII", _read_exact(fh, 12, "header"))
    if magic != TENSOR_MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}")
    if version != TENSOR_VERSION:
        raise ValueError(f"unsupported tensor version {version}")
    if rank < 1 or rank > 8:
        raise ValueError(f"unreasonable tensor rank {rank}")
    dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, "dims"))
    if min(dims) < 1:
        raise ValueError(f"tensor dims must be positive; got {dims}")
    count = math.prod(dims)
    payload = _read_exact(fh, 8 * count, "values")
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)


def load_posterior_tensor(file: BinaryIO | str | os.PathLike) -> PosteriorTensor:
    arr = read_tensor(file)
    if arr.ndim != 3:
        raise ValueError(f"posterior tensor must have rank 3 (T, states, vocab); got rank {arr.ndim}")
    return PosteriorTensor(arr)
