"""Exact log-space marginalization and gradients over (lattice, posteriors).

The marginal probability of a lattice given a posterior tensor is the sum
over all start-to-end node sequences with exactly T emissions of the
product of edge weights and the per-frame posterior of each emitted label,
taken from the decoder state carried by the traversed edge.  All dynamic
programming here runs in log space with log-sum-exp; T in the hundreds
underflows double precision otherwise.

Every operation is a pure function of its arguments, so lattices can be
reused freely.  :func:`batch_loss_and_grad` scores a batch of distinct
utterances together: it concatenates their lattices into one graph and
runs one frame recursion for the whole batch.  :func:`loss_and_grad` is
its call with one member.

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

from collections.abc import Iterable
from dataclasses import dataclass
from typing import NamedTuple

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


def _edge_scores(lat: Lattice, lp: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """scores[t - 1, e] = log p(t, i_e, k_e) + w_e for each row t of ``lp``,
    written to ``out`` when given.

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
    return np.add(lp[:, em.state, em.label], em.log_weight, out=out)


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


class _Stack(NamedTuple):
    """B lattices as one graph of disjoint parts.  Member b's node g is node
    ``nodes[b] + g``, its emitting edges are columns ``edges[b]:edges[b + 1]``
    of ``src``/``dst`` and it runs ``frames[b]`` frames.  The end edges of
    all members sit in ``final_src``/``final_weight``, each with its
    member's frame count in ``final_frames``."""

    frames: list[int]
    nodes: np.ndarray
    edges: np.ndarray
    start: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    final_src: np.ndarray
    final_weight: np.ndarray
    final_frames: np.ndarray


def _stacked(pairs: list[tuple[Lattice, PosteriorTensor]]) -> tuple[_Stack, np.ndarray]:
    """The members' lattices as one :class:`_Stack`, and their edge scores,
    each gathered once by :func:`_edge_scores`, left-aligned in one
    (max T_b, total E) array that holds -inf past each member's own T_b."""
    lats = [lat for lat, _ in pairs]
    frames = [post.num_frames for _, post in pairs]
    nodes = np.cumsum([0] + [len(lat.nodes) for lat in lats])
    edges = np.cumsum([0] + [lat.emit.src.size for lat in lats])
    stack = _Stack(
        frames,
        nodes,
        edges,
        nodes[:-1] + [lat.start_id for lat in lats],
        np.concatenate([lat.emit.src + base for lat, base in zip(lats, nodes)]),
        np.concatenate([lat.emit.dst + base for lat, base in zip(lats, nodes)]),
        np.concatenate([lat.final.src + base for lat, base in zip(lats, nodes)]),
        np.concatenate([lat.final.log_weight for lat in lats]),
        np.repeat(frames, [lat.final.src.size for lat in lats]),
    )
    scores = np.empty((max(frames), edges[-1]))
    for (lat, post), lo, hi in zip(pairs, edges, edges[1:]):
        _edge_scores(lat, post.logprobs, out=scores[:post.num_frames, lo:hi])
        scores[post.num_frames:, lo:hi] = NEG_INF
    return stack, scores


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
    return _forward(*_stacked([(lat, post)]))


def _forward(stack: _Stack, scores: np.ndarray) -> np.ndarray:
    """Every member's logAlpha side by side; a member's rows past its T_b
    read -inf scores, so they hold -inf."""
    alpha = np.full((len(scores) + 1, stack.nodes[-1]), NEG_INF)
    alpha[0, stack.start] = 0.0
    _sweep(alpha, scores, stack.src, stack.dst)
    return alpha


def backward_vars(lat: Lattice, post: PosteriorTensor) -> np.ndarray:
    """Backward table logBeta of shape (T + 1, num_nodes).

    logBeta[t, g] sums, over continuations that finish the alignment from
    node g after frame t, the log product of remaining edge weights and
    posteriors, including the terminal weight of the edge into the end
    node.  Row T holds that terminal weight for nodes with an end edge and
    -inf elsewhere; the recursion fills rows T-1 down to 1.
    """
    return _backward(*_stacked([(lat, post)]))


def _backward(stack: _Stack, scores: np.ndarray) -> np.ndarray:
    """:func:`_sweep` over the reversed lattices and frames.  A member's row
    T_b holds the terminal weights at its final nodes, written just before
    the sweep reads that row, so the sweep runs in one segment between each
    two distinct T_b; rows below T_b read score rows T_b - 1 down to 1, and
    rows past T_b and row 0 stay -inf."""
    beta = np.full((len(scores) + 1, stack.nodes[-1]), NEG_INF)
    ends = sorted(set(stack.frames), reverse=True)
    for hi, lo in zip(ends, ends[1:] + [1]):
        seed = stack.final_frames == hi
        beta[hi, stack.final_src[seed]] = stack.final_weight[seed]
        _sweep(beta[hi:lo - 1:-1], scores[hi - 1:lo - 1:-1], stack.dst, stack.src)
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
    alpha = forward_vars(lat, post)
    return _terminal_log_marginal(lat, alpha[-1, lat.final.src], post.num_frames)


def _terminal_log_marginal(lat: Lattice, final_alpha: np.ndarray, frames: int) -> float:
    """The log marginal from logAlpha row T at the lattice's final nodes."""
    logp = float(_logsumexp(final_alpha + lat.final.log_weight)[0])
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
    This is :func:`batch_loss_and_grad` of the one pair.
    """
    (outcome,) = batch_loss_and_grad([(lat, post)])
    if isinstance(outcome, InfeasibleLengthError):
        raise outcome
    return outcome


def batch_loss_and_grad(
    pairs: Iterable[tuple[Lattice, PosteriorTensor]],
) -> list[LossResult | InfeasibleLengthError]:
    """:func:`loss_and_grad` of each (lattice, posteriors) pair, in order,
    through one frame recursion for the whole batch.

    A member whose marginal is -inf comes back as the
    :class:`InfeasibleLengthError` that :func:`loss_and_grad` would raise;
    any other error raises for the batch.  The lattices are concatenated
    with node offsets, as one graph of disjoint parts, and their edge
    scores share one (max T_b, total E) array, -inf past each member's own
    T_b, so each member reads its log marginal from logAlpha row T_b and
    seeds logBeta at row T_b.  Infeasible members are dropped before the
    occupancies, where a -inf log P would give NaN; the occupancies of the
    rest are grouped once over (member, state, label) keys.  Each member's
    result equals its own :func:`loss_and_grad` bit for bit: every cell
    goes through the same floating-point operations in the same order.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    stack, scores = _stacked(pairs)
    alpha = _forward(stack, scores)
    outcomes: list[float | LossResult | InfeasibleLengthError] = []
    for (lat, post), base in zip(pairs, stack.nodes):
        try:
            final_alpha = alpha[post.num_frames, base + lat.final.src]
            outcomes.append(_terminal_log_marginal(lat, final_alpha, post.num_frames))
        except InfeasibleLengthError as exc:
            outcomes.append(exc)
    feasible = [b for b, outcome in enumerate(outcomes) if isinstance(outcome, float)]
    if not feasible:
        return outcomes
    beta = _backward(stack, scores)

    # the scores become occ[t - 1, e] in place; alpha - log P goes in before beta
    keep = np.repeat([isinstance(outcome, float) for outcome in outcomes], np.diff(stack.edges))
    occ = scores if keep.all() else scores[:, keep]
    members = [pairs[b] for b in feasible]
    logp = np.repeat([outcomes[b] for b in feasible], [lat.emit.src.size for lat, _ in members])
    occ += alpha[:-1, stack.src[keep]] - logp
    occ += beta[1:, stack.dst[keep]]
    np.exp(occ, out=occ)

    # member j's (state, label) pairs are keys key_base[j] + state * vocab + label
    # and its states are columns states[j]:states[j + 1] of occ_state
    key_base = np.cumsum([0] + [post.num_states * post.vocab_size for _, post in members])
    states = np.cumsum([0] + [post.num_states for _, post in members])
    keys = np.concatenate([
        base + lat.emit.state * post.vocab_size + lat.emit.label
        for (lat, post), base in zip(members, key_base)
    ])
    state_of_edge = np.concatenate([
        first + lat.emit.state for (lat, _), first in zip(members, states)
    ])
    pair_keys, first_edge, pair_of_edge = np.unique(keys, return_index=True, return_inverse=True)
    occ_pair = _group_columns(occ, pair_of_edge, pair_keys.size)
    occ_state = _group_columns(occ_pair, state_of_edge[first_edge], states[-1])

    bounds = np.searchsorted(pair_keys, key_base)
    for j, (b, (_, post)) in enumerate(zip(feasible, members)):
        lo, hi = bounds[j], bounds[j + 1]
        pair_state, pair_label = np.divmod(pair_keys[lo:hi] - key_base[j], post.vocab_size)
        frames = post.num_frames
        grad = np.exp(post.logprobs)
        grad *= occ_state[:frames, states[j]:states[j + 1], None]
        grad[:, pair_state, pair_label] -= occ_pair[:frames, lo:hi]
        outcomes[b] = LossResult(loss=-outcomes[b], log_marginal=outcomes[b], grad=grad)
    return outcomes
