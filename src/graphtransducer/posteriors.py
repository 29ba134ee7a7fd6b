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

# bytes of logits per block of frames in the constructor's normalizer pass
_BLOCK_BYTES = 512 * 1024
# largest single read of a tensor file's payload
_READ_CHUNK_BYTES = 1 << 20


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over the last axis, which is kept with length 1.

    The row peak is shifted out first, so large magnitudes neither
    overflow nor underflow.  Peaks start at ``_LOWEST``, not -inf, so a
    row with a finite entry gets its own maximum and no shift computes
    -inf - -inf; a row that is empty or all -inf sums to 0 and gives -inf
    without a floating-point warning.
    """
    peak = np.max(x, axis=-1, keepdims=True, initial=_LOWEST)
    shifted = np.subtract(x, peak)
    total = np.exp(shifted, out=shifted).sum(axis=-1, keepdims=True)
    return peak + np.log(total, out=np.full_like(total, NEG_INF), where=total > 0.0)


class PosteriorTensor:
    """Label scores indexed (frame t, decoder state i, label k).

    ``logits`` holds the raw scores h[t, i, k] and ``lse`` their log
    normalizer logsumexp_k h[t, i, k], shape (T, S, 1).  Both are
    read-only: ``lse`` is computed once, from ``logits``, so a write to
    either would give a finite wrong loss.  The constructor does not copy
    an input that is already C-contiguous float64, so ``logits`` is a view
    of it and the caller must not write to it afterwards.  ``logprobs``,
    the log-softmax ``logits - lse`` whose (t, i) rows each sum to one in
    probability space, is built on first read and then kept; the loss reads
    ``logits`` and ``lse`` only, so it never builds it.  Frames are 1-based
    in the math and 0-based in the arrays: row ``logprobs[t - 1, i]``
    scores frame t.

    One tensor can hold many utterances side by side on the state axis, as
    :func:`~graphtransducer.model.train_step` packs a batch: :meth:`member`
    takes one utterance's frames and state columns as a tensor whose
    ``logits`` and ``lse`` are read-only strided views of this one's, so the
    pack's one normalizer pass serves every member.  The loss scores a
    batch of one pack's members, in column order, in the pack's own arrays;
    a lone tensor is read as it is, not copied, and any other batch is
    copied into one padded buffer.
    """

    # a member's pack and its first state column there; a member refers to
    # its pack and a tensor never to itself, so dropping a step's references
    # frees them without the cyclic garbage collector
    _pack: PosteriorTensor | None = None
    _first: int = 0

    def __init__(self, logits):
        logits = np.ascontiguousarray(np.asarray(logits, dtype=np.float64))
        if logits.ndim != 3:
            raise ValueError(f"logits must have shape (T, states, vocab); got {logits.shape}")
        if min(logits.shape) < 1:
            raise ValueError(f"all logits dimensions must be positive; got {logits.shape}")
        # a block of frames at a time, so the temporaries stay in cache; the
        # finite check stays, as a -inf logit would not show in lse
        step = max(1, _BLOCK_BYTES // logits[0].nbytes)
        lse = np.empty(logits.shape[:2] + (1,))
        for lo in range(0, len(logits), step):
            block = logits[lo:lo + step]
            if not np.all(np.isfinite(block)):
                raise ValueError("logits must be finite")
            lse[lo:lo + step] = _logsumexp(block)
        self.logits = logits.view()
        self.logits.flags.writeable = False
        lse.flags.writeable = False
        self.lse = lse

    def member(self, frames: int, first: int, states: int) -> PosteriorTensor:
        """Frames ``:frames`` of state columns ``first:first + states`` as a
        tensor of their own, whose arrays are views of this tensor's."""
        if not (1 <= frames <= self.num_frames and states >= 1 and 0 <= first <= self.num_states - states):
            raise ValueError(
                f"a member takes 1..{self.num_frames} frames and states within 0..{self.num_states - 1}; "
                f"got {frames} frames and states {first}:{first + states}"
            )
        member = PosteriorTensor.__new__(PosteriorTensor)
        member.logits = self.logits[:frames, first:first + states]
        member.lse = self.lse[:frames, first:first + states]
        member._pack, member._first = self, first
        return member

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
    arr = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
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
