"""Per-utterance posterior tensors and their binary on-disk format."""

from __future__ import annotations

import os
import struct
from typing import BinaryIO

import numpy as np

TENSOR_MAGIC = b"GTCT"
TENSOR_VERSION = 1

NEG_INF = float("-inf")


def _logsumexp(x: np.ndarray) -> np.ndarray:
    """log(sum(exp(x))) over the last axis, which is kept with length 1.

    The row peak is shifted out first, so large magnitudes neither
    overflow nor underflow; a row that is empty or all -inf gives -inf
    without a floating-point warning.
    """
    peak = np.max(x, axis=-1, keepdims=True, initial=NEG_INF)
    peak[peak == NEG_INF] = 0.0  # exp(-inf - -inf) would be NaN
    total = np.exp(x - peak).sum(axis=-1, keepdims=True)
    return peak + np.log(total, out=np.full_like(total, NEG_INF), where=total > 0.0)


class PosteriorTensor:
    """Label scores indexed (frame t, decoder state i, label k).

    ``logits`` holds the raw scores h[t, i, k]; ``logprobs`` is their
    log-softmax over k, so every (t, i) row sums to one in probability
    space.  Frames are 1-based in the math and 0-based in the arrays:
    row ``logprobs[t - 1, i]`` scores frame t.
    """

    def __init__(self, logits):
        logits = np.ascontiguousarray(np.asarray(logits, dtype=np.float64))
        if logits.ndim != 3:
            raise ValueError(f"logits must have shape (T, states, vocab); got {logits.shape}")
        if min(logits.shape) < 1:
            raise ValueError(f"all logits dimensions must be positive; got {logits.shape}")
        if not np.all(np.isfinite(logits)):
            raise ValueError("logits must be finite")
        self.logits = logits
        self.logprobs = logits - _logsumexp(logits)

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


def _read_exact(fh: BinaryIO, count: int, what: str) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise ValueError(f"truncated tensor file while reading {what}")
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
    count = int(np.prod(dims))
    payload = _read_exact(fh, 8 * count, "values")
    return np.frombuffer(payload, dtype="<f8").astype(np.float64).reshape(dims)


def load_posterior_tensor(file: BinaryIO | str | os.PathLike) -> PosteriorTensor:
    arr = read_tensor(file)
    if arr.ndim != 3:
        raise ValueError(f"posterior tensor must have rank 3 (T, states, vocab); got rank {arr.ndim}")
    return PosteriorTensor(arr)
