"""Brute-force verification oracles.

Everything here exists to cross-check the production implementations and
deliberately shares no recursion, indexing or normalizer with them: the
marginal is recomputed by exhaustive path enumeration from the raw logits
through the oracle's own :func:`log_softmax`, gradients by central finite
differences through that enumeration, and the two reduction references
(plain CTC and the monotonic two-index recursion) are written as direct
indexed loops.  :func:`decimal_softmax` evaluates a softmax in the
standard library's ``decimal`` at 40 digits, so the rounding of a float
one can be measured in ulps (:func:`ulp_error`).  Hard size guards refuse
exponential work instead of attempting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext

import numpy as np

from .lattice import Lattice
from .loss import InfeasibleLengthError
from .posteriors import PosteriorTensor

MAX_FRAMES = 8
MAX_NODES = 16

NEG_INF = float("-inf")

# significant digits of decimal_softmax, far past float64's 17
_DECIMAL_DIGITS = 40


class SizeLimitError(ValueError):
    """Problem too large for exhaustive enumeration."""


@dataclass(frozen=True)
class AlignmentPath:
    """One start-to-end node sequence with exactly T emitting steps.

    ``log_weight`` is the structural part of the path score: the sum of
    edge log weights including the terminal edge into the end node.
    """

    nodes: tuple[int, ...]
    log_weight: float


def enumerate_paths(lat: Lattice, frames: int) -> list[AlignmentPath]:
    """Exhaustively list all start-to-end paths with exactly ``frames``
    emissions.  Returns an empty list when none exist."""
    if frames > MAX_FRAMES:
        raise SizeLimitError(f"refusing to enumerate paths for T={frames} > {MAX_FRAMES}")
    if len(lat.nodes) > MAX_NODES:
        raise SizeLimitError(
            f"refusing to enumerate paths on a lattice with {len(lat.nodes)} > {MAX_NODES} nodes"
        )
    out_edges: dict[int, list] = {}
    end_weight: dict[int, float] = {}
    for e in lat.edges:
        if e.dst == lat.end_id:
            end_weight[e.src] = e.log_weight
        elif lat.nodes[e.dst].emitting:
            out_edges.setdefault(e.src, []).append(e)

    paths: list[AlignmentPath] = []
    stack = [((lat.start_id,), 0.0)]
    while stack:
        nodes, logw = stack.pop()
        emitted = len(nodes) - 1
        if emitted == frames:
            if nodes[-1] in end_weight:
                paths.append(AlignmentPath(nodes + (lat.end_id,), logw + end_weight[nodes[-1]]))
            continue
        for e in out_edges.get(nodes[-1], ()):
            stack.append((nodes + (e.dst,), logw + e.log_weight))
    paths.reverse()  # depth-first stack order back to generation order
    return paths


def _path_score_arrays(lat: Lattice, paths: list[AlignmentPath]):
    """Index arrays so a path score is a gather-and-sum over logprobs."""
    edge_info = {}
    for e in lat.edges:
        if lat.nodes[e.dst].emitting:
            edge_info[(e.src, e.dst)] = (e.state, lat.nodes[e.dst].label)
    frames = len(paths[0].nodes) - 2
    t_idx = np.tile(np.arange(frames), (len(paths), 1))
    s_idx = np.empty((len(paths), frames), dtype=np.int64)
    k_idx = np.empty((len(paths), frames), dtype=np.int64)
    base = np.empty(len(paths))
    for p, path in enumerate(paths):
        base[p] = path.log_weight
        for step in range(frames):
            s_idx[p, step], k_idx[p, step] = edge_info[(path.nodes[step], path.nodes[step + 1])]
    return t_idx, s_idx, k_idx, base


def _logsumexp(values: np.ndarray) -> float:
    peak = values.max()
    if peak == NEG_INF:
        return NEG_INF
    return float(peak + np.log(np.exp(values - peak).sum()))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-softmax over the last axis, with the row peak shifted out; the
    oracle's own normalizer, so a fault in the production one shows."""
    peak = logits.max(axis=-1, keepdims=True)
    return logits - (peak + np.log(np.exp(logits - peak).sum(axis=-1, keepdims=True)))


def decimal_softmax(logits: np.ndarray) -> list[list[Decimal]]:
    """The softmax of each row of a 2-D array, in ``decimal`` at
    ``_DECIMAL_DIGITS`` significant digits.  Each float converts to a Decimal exactly, and the
    exponentials, their sum and the quotients are all Decimal, so no
    float64 rounding enters.  It costs tens of microseconds per entry, so
    it suits a few rows, not a whole tensor."""
    rows = np.asarray(logits, dtype=np.float64)
    if rows.ndim != 2:
        raise ValueError(f"logits must be 2-D (rows, labels); got shape {rows.shape}")
    with localcontext() as ctx:
        ctx.prec = _DECIMAL_DIGITS
        out = []
        for row in rows.tolist():
            exps = [Decimal(h).exp() for h in row]
            total = sum(exps)
            out.append([e / total for e in exps])
    return out


def ulp_error(values: np.ndarray, exact: list[list[Decimal]]) -> np.ndarray:
    """|value - exact| for each entry of a 2-D float array against the
    same-shaped Decimal one, in units in the last place of the float
    nearest the exact value.  The difference is taken in Decimal."""
    rows = np.asarray(values, dtype=np.float64)
    out = np.empty(rows.shape)
    for (i, j), value in np.ndenumerate(rows):
        want = exact[i][j]
        out[i, j] = float(abs(Decimal(value) - want) / Decimal(float(np.spacing(float(want)))))
    return out


def brute_force_marginal(lat: Lattice, post: PosteriorTensor) -> float:
    """Log marginal as a plain sum over every enumerated alignment path."""
    paths = enumerate_paths(lat, post.num_frames)
    if not paths:
        raise InfeasibleLengthError(post.num_frames, lat._fewest_emissions)
    t_idx, s_idx, k_idx, base = _path_score_arrays(lat, paths)
    scores = base + log_softmax(post.logits)[t_idx, s_idx, k_idx].sum(axis=1)
    return _logsumexp(scores)


def finite_diff_grad(lat: Lattice, post: PosteriorTensor, step: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of the path-enumeration loss w.r.t. the
    raw logits, re-running the softmax and the loss for every coordinate."""
    if step <= 0:
        raise ValueError(f"finite-difference step must be positive; got {step}")
    paths = enumerate_paths(lat, post.num_frames)
    if not paths:
        raise InfeasibleLengthError(post.num_frames, lat._fewest_emissions)
    t_idx, s_idx, k_idx, base = _path_score_arrays(lat, paths)

    def loss_at(logits: np.ndarray) -> float:
        return -_logsumexp(base + log_softmax(logits)[t_idx, s_idx, k_idx].sum(axis=1))

    logits = post.logits.copy()
    grad = np.empty_like(logits)
    for idx in np.ndindex(logits.shape):
        keep = logits[idx]
        logits[idx] = keep + step
        plus = loss_at(logits)
        logits[idx] = keep - step
        minus = loss_at(logits)
        logits[idx] = keep
        grad[idx] = (plus - minus) / (2.0 * step)
    return grad


def reference_ctc(labels, logprobs: np.ndarray) -> float:
    """Textbook CTC loss over the blank-interleaved expanded sequence.

    ``logprobs`` has shape (T, vocab) with log-softmax rows; blank is
    label 0.  Returns the negative log probability of ``labels``.
    """
    labels = tuple(int(k) for k in labels)
    lp = np.asarray(logprobs, dtype=np.float64)
    frames = lp.shape[0]
    ext = np.zeros(2 * len(labels) + 1, dtype=np.int64)
    ext[1::2] = labels
    n_ext = ext.size

    alpha = np.full(n_ext, NEG_INF)
    alpha[0] = lp[0, ext[0]]
    if n_ext > 1:
        alpha[1] = lp[0, ext[1]]
    skip_ok = np.zeros(n_ext, dtype=bool)
    skip_ok[2:] = (ext[2:] != 0) & (ext[2:] != ext[:-2])
    for t in range(1, frames):
        stay = alpha
        move = np.concatenate(([NEG_INF], alpha))[:n_ext]
        skip = np.concatenate(([NEG_INF, NEG_INF], alpha))[:n_ext]
        alpha = np.logaddexp(stay, move)
        alpha = np.where(skip_ok, np.logaddexp(alpha, skip), alpha)
        alpha = alpha + lp[t, ext]
    total = alpha[-1] if n_ext == 1 else np.logaddexp(alpha[-1], alpha[-2])
    if total == NEG_INF:
        repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
        raise InfeasibleLengthError(frames, max(1, len(labels) + repeats))
    return float(-total)


def reference_monornnt(labels, logprobs: np.ndarray) -> float:
    """Direct two-index recursion for the strictly monotonic transducer.

    ``logprobs`` has shape (T, U + 1, vocab): one distribution per frame
    and per count of consumed labels.  Each frame either emits blank from
    the current state or the next label from the previous state.
    """
    labels = tuple(int(k) for k in labels)
    lp = np.asarray(logprobs, dtype=np.float64)
    frames, n_states = lp.shape[0], lp.shape[1]
    big_u = len(labels)
    if n_states < big_u + 1:
        raise ValueError(f"need {big_u + 1} decoder states, tensor has {n_states}")

    alpha = np.full((frames + 1, big_u + 1), NEG_INF)
    alpha[0, 0] = 0.0
    for t in range(1, frames + 1):
        for u in range(big_u + 1):
            best = alpha[t - 1, u] + lp[t - 1, u, 0]
            if u > 0:
                best = np.logaddexp(best, alpha[t - 1, u - 1] + lp[t - 1, u - 1, labels[u - 1]])
            alpha[t, u] = best
    total = alpha[frames, big_u]
    if total == NEG_INF:
        raise InfeasibleLengthError(frames, max(1, big_u))
    return float(-total)
