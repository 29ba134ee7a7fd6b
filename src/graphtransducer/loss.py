"""Exact log-space marginalization and gradients over (lattice, posteriors).

The marginal probability of a lattice given a posterior tensor is the sum
over all start-to-end node sequences with exactly T emissions of the
product of edge weights and the per-frame posterior of each emitted label,
taken from the decoder state carried by the traversed edge.  All dynamic
programming here runs in log space with log-sum-exp; T in the hundreds
underflows double precision otherwise.

Every operation is a pure function of its arguments, so distinct
utterances can be processed concurrently and lattices reused freely.

The entry points take any :class:`Lattice` that constructs; they do not
run :func:`~graphtransducer.lattice.validate`, which governs
serialization.  The path sum is exact on any graph: determinism, state
consistency and id order matter only to what the sum means (the bound
P <= 1 needs the first two).  An emitting edge without a decoder state
raises ``ValueError``, as does a state or label outside the tensor.
Validating on every call would add a Python pass over all edges to each
training utterance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import Lattice
from .posteriors import PosteriorTensor, _logsumexp

NEG_INF = float("-inf")


class InfeasibleLengthError(ValueError):
    """No alignment of exactly the requested frame count has nonzero probability."""

    def __init__(self, frames: int, min_frames: int):
        self.frames = frames
        self.min_frames = min_frames
        super().__init__(
            f"no alignment of exactly {frames} frames has nonzero probability; "
            f"the shortest start-to-end path needs {min_frames}"
        )


@dataclass
class LossResult:
    """Negative log marginal and its gradient w.r.t. the raw logits.

    ``grad`` has the exact shape of the logits; every (t, i) row sums to
    zero because the loss is invariant to shifting a softmax row.
    """

    loss: float
    log_marginal: float
    grad: np.ndarray


def _scatter_logsumexp(values: np.ndarray, index: np.ndarray, size: int) -> np.ndarray:
    """Grouped log-sum-exp: out[j] = logsumexp(values[index == j])."""
    out = np.full(size, NEG_INF)
    if values.size == 0:
        return out
    peak = np.full(size, NEG_INF)
    np.maximum.at(peak, index, values)
    shifted = peak[index]
    ok = shifted > NEG_INF  # exp(-inf - -inf) would be NaN
    sums = np.zeros(size)
    np.add.at(sums, index[ok], np.exp(values[ok] - shifted[ok]))
    finite = peak > NEG_INF
    out[finite] = peak[finite] + np.log(sums[finite])
    return out


def _edge_scores(lat: Lattice, lp: np.ndarray) -> np.ndarray:
    """scores[t - 1, e] = log p(t, i_e, k_e) + w_e for each row t of ``lp``.

    The one gather from the (T, S, V) tensor, so the one place that checks
    every edge's state and label against it.
    """
    em = lat.emit
    if em.src.size:
        n_states, vocab = lp.shape[1:]
        max_state = int(em.state.max())
        if max_state >= n_states:
            raise ValueError(
                f"lattice references decoder state {max_state} but the tensor has "
                f"only {n_states} states"
            )
        max_label = int(em.label.max())
        if max_label >= vocab:
            raise ValueError(f"lattice emits label {max_label} but the tensor vocab is {vocab}")
    scores = lp[:, em.state, em.label]
    scores += em.log_weight
    return scores


def _sweep(table: np.ndarray, scores: np.ndarray, gather: np.ndarray, scatter: np.ndarray):
    """The frame recursion of both directions, filling ``table`` in place:
    table[s] = logsumexp, grouped by ``scatter``, of table[s - 1, gather]
    plus scores[s - 1], for s = 1 .. len(scores)."""
    size = table.shape[1]
    for s, row in enumerate(scores, start=1):
        table[s] = _scatter_logsumexp(table[s - 1, gather] + row, scatter, size)


def _group_columns(values: np.ndarray, group: np.ndarray, size: int) -> np.ndarray:
    """Per-row grouped sum: out[t, j] = values[t, group == j].sum().

    ``np.add.at`` rather than one ``bincount`` over (row, group) keys: the
    extra key array shifted the allocation pattern enough to raise peak
    resident memory by about 10% at T = 500, V = 100.
    """
    out = np.zeros((values.shape[0], size))
    np.add.at(out, (slice(None), group), values)
    return out


def forward_vars(lat: Lattice, post: PosteriorTensor) -> np.ndarray:
    """Forward table logAlpha of shape (T + 1, num_nodes).

    logAlpha[t, g] sums, over paths from the start node that reach node g
    in exactly t emissions, the log product of edge weights and
    emitted-label posteriors.  Row 0 is the initialization: 0 at the start
    node, -inf elsewhere.  A cell whose node cannot finish an alignment in
    the remaining frames may still be finite: it feeds only cells that
    cannot finish either, and joined with :func:`backward_vars` it meets a
    -inf logBeta, so it adds nothing to a marginal or an occupancy.

    Too small a T is not an error here; the marginal simply comes out as
    -inf and the loss entry point reports infeasibility.
    """
    return _forward(lat, _edge_scores(lat, post.logprobs))


def _forward(lat: Lattice, scores: np.ndarray) -> np.ndarray:
    alpha = np.full((len(scores) + 1, len(lat.nodes)), NEG_INF)
    alpha[0, lat.start_id] = 0.0
    _sweep(alpha, scores, lat.emit.src, lat.emit.dst)
    return alpha


def backward_vars(lat: Lattice, post: PosteriorTensor) -> np.ndarray:
    """Backward table logBeta of shape (T + 1, num_nodes).

    logBeta[t, g] sums, over continuations that finish the alignment from
    node g after frame t, the log product of remaining edge weights and
    posteriors, including the terminal weight of the edge into the end
    node.  Row T holds that terminal weight for nodes with an end edge and
    -inf elsewhere; the recursion fills rows T-1 down to 1.
    """
    return _backward(lat, _edge_scores(lat, post.logprobs))


def _backward(lat: Lattice, scores: np.ndarray) -> np.ndarray:
    """:func:`_sweep` over the reversed lattice and frames: row T holds the
    terminal weights at the final nodes, rows T-1 down to 1 read score rows
    T-1 down to 1, and row 0 stays -inf."""
    beta = np.full((len(scores) + 1, len(lat.nodes)), NEG_INF)
    beta[-1, lat.final.src] = lat.final.log_weight
    _sweep(beta[::-1], scores[:0:-1], lat.emit.dst, lat.emit.src)
    return beta


def marginal(
    lat: Lattice, post: PosteriorTensor, alpha: np.ndarray, beta: np.ndarray, t: int
) -> float:
    """Log marginal evaluated at frame t by joining the tables over edges.

    The result is the same (up to rounding) for every t in 1..T, which is
    the cross-check exploited by the verification suite.
    """
    frames = post.num_frames
    if not 1 <= t <= frames:
        raise ValueError(f"frame index t={t} outside 1..{frames}")
    em = lat.emit
    scores = alpha[t - 1, em.src] + _edge_scores(lat, post.logprobs[t - 1:t])[0] + beta[t, em.dst]
    return float(_logsumexp(scores)[0])


def log_marginal(lat: Lattice, post: PosteriorTensor) -> float:
    """Log of the total alignment probability; raises
    :class:`InfeasibleLengthError` when it is -inf, that is when no
    alignment of length T exists or every one crosses a zero-weight edge."""
    return _terminal_log_marginal(lat, forward_vars(lat, post), post.num_frames)


def _terminal_log_marginal(lat: Lattice, alpha: np.ndarray, frames: int) -> float:
    logp = float(_logsumexp(alpha[-1, lat.final.src] + lat.final.log_weight)[0])
    if logp == NEG_INF:
        raise InfeasibleLengthError(frames, lat.min_emissions)
    return logp


def loss_and_grad(lat: Lattice, post: PosteriorTensor) -> LossResult:
    """Negative log marginal plus its gradient w.r.t. the logits.

    The gradient is taken in occupancy form.  The occupancy of emitting
    edge e at frame t is the posterior probability that an alignment
    traverses e at that frame,

        occ(t, e) = exp(logAlpha[t-1, src] + w_e + log p(t, i_e, k_e)
                        + logBeta[t, dst] - log P),

    held for all frames at once in one (T, E) array.  Summing it over the
    edges that carry decoder state i gives occ(t, i), and over those that
    also emit label k gives occ(t, i, k); then

        d loss / d h[t, i, k] = p(t, i, k) * occ(t, i) - occ(t, i, k).

    The edge scores w_e + log p(t, i_e, k_e) are gathered once, in one
    (T, E) array that one recursion reads over the lattice (logAlpha) and
    over its reverse (logBeta) and that then becomes the occupancy buffer.
    """
    n_states, vocab = post.num_states, post.vocab_size
    em = lat.emit
    lp = post.logprobs

    scores = occ = _edge_scores(lat, lp)
    alpha = _forward(lat, scores)
    logp = _terminal_log_marginal(lat, alpha, post.num_frames)
    beta = _backward(lat, scores)

    # the scores become occ[t - 1, e] in place; alpha - log P goes in before beta
    occ += alpha[:-1, em.src] - logp
    occ += beta[1:, em.dst]
    np.exp(occ, out=occ)

    pairs, pair_of_edge = np.unique(em.state * vocab + em.label, return_inverse=True)
    occ_pair = _group_columns(occ, pair_of_edge, pairs.size)
    pair_state, pair_label = np.divmod(pairs, vocab)
    occ_state = _group_columns(occ_pair, pair_state, n_states)

    grad = np.exp(lp)
    grad *= occ_state[:, :, None]
    grad[:, pair_state, pair_label] -= occ_pair
    return LossResult(loss=-logp, log_marginal=logp, grad=grad)
