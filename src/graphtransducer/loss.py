"""Exact log-space marginalization and gradients over (lattice, posteriors).

The marginal probability of a lattice given a posterior tensor is the sum
over all start-to-end node sequences with exactly T emissions of the
product of edge weights and the per-frame posterior of each emitted label,
taken from the decoder state carried by the traversed edge.  All dynamic
programming here runs in log space with log-sum-exp; T in the hundreds
underflows double precision otherwise.

Every operation is a pure function of its arguments, so lattices can be
reused freely.  :func:`batch_loss_and_grad` scores a batch of distinct
utterances together, one group per vocabulary size: it concatenates a
group's lattices into one graph, lays its tensors side by side on the
state axis in one tensor, and runs one frame loop and one gradient pass
for the group.  That loop fills logAlpha and logBeta together: it runs
over the graph and its reverse as one graph of two disjoint parts.  It
is the module's only frame loop:
:func:`forward_vars`, :func:`backward_vars` and :func:`log_marginal` read
their halves of its one table.  :func:`loss_and_grad` is the batch's call
with one member.  The side-by-side layout is this module's alone: one
helper writes it, and the scoring core takes the concatenated graph with
one tensor of one vocabulary, so a training step passes the graph that
:func:`~graphtransducer.lattice._build_stack` writes from its label
sequences and the one tensor that holds its layout of logits, and makes
no lattice.  The core exponentiates the logits once: one pass over its
tensor gives the log normalizer and writes exp(h - peak) into the buffer
that becomes the gradient.

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

import numpy as np

from .lattice import Lattice, _fewest_emissions_from, _is_int, _Stack
from .posteriors import _LOWEST, PosteriorTensor, _logsumexp

NEG_INF = float("-inf")


class InfeasibleLengthError(ValueError):
    """No alignment of exactly the requested frame count has nonzero
    probability.  ``min_frames`` is the fewest frames of any start-to-end
    path, or None when no path reaches the end node."""

    def __init__(self, frames: int, min_frames: int | None):
        self.frames = frames
        self.min_frames = min_frames
        reason = ("no path from start reaches the end node" if min_frames is None
                  else f"the shortest start-to-end path needs {min_frames}")
        super().__init__(f"no alignment of exactly {frames} frames has nonzero probability; {reason}")


@dataclass
class LossResult:
    """Negative log marginal and its gradient w.r.t. the raw logits.

    ``grad`` has the exact shape of the logits; every (t, i) row sums to
    zero because the loss is invariant to shifting a softmax row.  In a
    batch it is a view of the gradient buffer of the member's vocabulary
    group, so keeping it keeps that buffer alive.
    """

    loss: float
    log_marginal: float
    grad: np.ndarray


def _scatter_logsumexp(values: np.ndarray, index: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Grouped log-sum-exp into ``out``, which must hold -inf and whose
    size is the number of groups: out[j] = logsumexp(values[index == j]),
    in the idiom of :func:`~graphtransducer.posteriors._logsumexp`.  Each
    group's peak is shifted out first.  Peaks start at ``_LOWEST``, not
    -inf, so a group with a finite entry gets its own maximum and no shift
    computes -inf - -inf.  An empty or all -inf group sums to 0; its log is
    not taken, so its entry keeps the -inf that ``out`` holds, with no
    floating-point warning.  ``np.bincount`` adds each group's terms in
    index order, as ``np.add.at`` does."""
    peak = np.full(out.size, _LOWEST)
    np.maximum.at(peak, index, values)
    shifted = np.subtract(values, peak[index])
    total = np.bincount(index, np.exp(shifted, out=shifted), out.size)
    np.log(total, out=out, where=total > 0.0)
    out += peak
    return out


def _group_columns(values: np.ndarray, group: np.ndarray, size: int) -> np.ndarray:
    """Per-row grouped sum: out[t, j] = values[t, group == j].sum().

    ``np.add.at`` rather than one ``bincount`` over (row, group) keys: the
    extra key array shifted the allocation pattern enough to raise peak
    resident memory by about 10% at T = 500, V = 100.
    """
    out = np.zeros((values.shape[0], size))
    np.add.at(out, (slice(None), group), values)
    return out


def _stack(pairs: list[tuple[Lattice, PosteriorTensor]]) -> _Stack:
    """The pairs' lattices as one :class:`_Stack`, with the frame and state
    counts of their tensors; any lattice that constructs.  For the built-in
    topologies :func:`~graphtransducer.lattice._build_stack` writes the
    same stack from the label sequences alone."""
    lats = [lat for lat, _ in pairs]
    frames = [post.num_frames for _, post in pairs]
    emits = [lat.emit for lat in lats]
    finals = [lat.final for lat in lats]
    counts = [em.src.size for em in emits]
    final_counts = [final.src.size for final in finals]
    nodes = np.cumsum([0] + [lat.num_nodes for lat in lats])
    states = np.cumsum([0] + [post.num_states for _, post in pairs])
    node_base = np.repeat(nodes[:-1], counts)
    return _Stack(
        frames,
        nodes,
        np.cumsum([0] + counts),
        np.cumsum([0] + final_counts),
        states,
        nodes[:-1] + [lat.start_id for lat in lats],
        np.concatenate([em.src for em in emits]) + node_base,
        np.concatenate([em.dst for em in emits]) + node_base,
        np.concatenate([em.state for em in emits]) + np.repeat(states[:-1], counts),
        np.concatenate([em.label for em in emits]),
        np.concatenate([em.log_weight for em in emits]),
        np.concatenate([final.src for final in finals]) + np.repeat(nodes[:-1], final_counts),
        np.concatenate([final.log_weight for final in finals]),
        np.repeat(frames, final_counts),
    )


def _side_by_side(tables: list[np.ndarray], states: np.ndarray) -> np.ndarray:
    """The (T_b, S_b, K) tables, which share their vocabulary size K, side
    by side on the state axis of one zero-filled (max T_b, total S_b, K)
    buffer, left-aligned in time: table b takes frames ``:T_b`` of state
    columns ``states[b]:states[b + 1]``.  The one layout of logits that the
    loss scores as one tensor; a training step's tensor holds it."""
    out = np.zeros((max(len(table) for table in tables), states[-1], tables[0].shape[2]))
    for table, lo, hi in zip(tables, states, states[1:]):
        out[:len(table), lo:hi] = table
    return out


def _single(lat: Lattice, post: PosteriorTensor):
    """The one pair's stack and its edge scores (:func:`_edge_scores`),
    read from the tensor's own ``logits`` and ``lse``."""
    stack = _stack([(lat, post)])
    return stack, _edge_scores(stack, post.logits, post.lse)


def _edge_scores(stack: _Stack, logits: np.ndarray, lse: np.ndarray) -> np.ndarray:
    """scores[t - 1, e] = log p(t, i_e, k_e) + w_e for each emitting edge e
    of the stack and each row t of ``logits`` and of their log normalizer
    ``lse``, which hold the members' tensors as :func:`_side_by_side` lays
    them out, in one (rows, total E) array that holds -inf past each
    member's own T_b.

    log p(t, i, k) = h[t, i, k] - lse[t, i] is formed here, at the E edges
    only, so the (T, S, V) log-softmax is never written.  The one gather
    from the tensors, so the one place that checks every edge's state and
    label against its member's state count and the vocabulary size
    ``logits.shape[2]`` that every member shares.
    """
    counts, vocab = np.diff(stack.edges), logits.shape[2]
    outside = stack.column >= np.repeat(stack.states[1:], counts)
    outside |= stack.label >= vocab
    if outside.any():
        b = int(np.searchsorted(stack.edges, outside.argmax(), side="right")) - 1
        lo, hi = stack.edges[b], stack.edges[b + 1]
        n_states = stack.states[b + 1] - stack.states[b]
        max_state = int(stack.column[lo:hi].max() - stack.states[b])
        if max_state >= n_states:
            raise ValueError(
                f"lattice references decoder state {max_state} but the tensor has "
                f"only {n_states} states"
            )
        max_label = int(stack.label[lo:hi].max())
        raise ValueError(f"lattice emits label {max_label} but the tensor vocab is {vocab}")
    scores = np.subtract(logits[:, stack.column, stack.label], lse[:, stack.column, 0])
    scores += stack.log_weight
    scores[np.arange(len(scores))[:, None] >= np.repeat(stack.frames, counts)] = NEG_INF
    return scores


def _sweep(stack: _Stack, scores: np.ndarray) -> np.ndarray:
    """The module's one frame recursion over the stack, in one loop of T
    frames, filling logAlpha and logBeta together.

    The lattices and their reverses run as one graph of two disjoint
    parts: node g of the reverse is node N + g, the edges are gathered at
    ``[src, dst + N]`` and grouped by ``[dst, src + N]``, and row s of the
    (T + 1, 2N) table holds [logAlpha[s], logBeta[T - s]].  Frame s adds
    scores[s - 1] to the first E gathered values and scores[T - s] to the
    rest, in place.  A member's terminal weights go into the logBeta half
    at row T - T_b, before the step that reads it; past its T_b a member
    reads -inf scores, so those rows hold -inf.  The last frame also fills
    logBeta row 0, which the recursion leaves out (it ends at row 1), so
    that row is reset to -inf.  Each frame is one
    :func:`_scatter_logsumexp` over both parts, whose groups are disjoint,
    so every cell comes out as a loop of its own direction would give it.
    :func:`forward_vars`, :func:`backward_vars` and :func:`log_marginal`
    read their halves of this one table."""
    frames, nodes, edges = len(scores), stack.nodes[-1], stack.src.size
    gather = np.concatenate([stack.src, stack.dst + nodes])
    scatter = np.concatenate([stack.dst, stack.src + nodes])
    seeds = {}
    for t in set(stack.frames):
        ends = stack.final_frames == t
        seeds[frames - t] = nodes + stack.final_src[ends], stack.final_weight[ends]
    table = np.full((frames + 1, 2 * nodes), NEG_INF)
    table[0, stack.start] = 0.0
    for s, (ahead, behind) in enumerate(zip(scores, scores[::-1]), start=1):
        if s - 1 in seeds:
            columns, weights = seeds[s - 1]
            table[s - 1, columns] = weights
        values = table[s - 1].take(gather)
        values[:edges] += ahead
        values[edges:] += behind
        _scatter_logsumexp(values, scatter, out=table[s])
    table[frames, nodes:] = NEG_INF
    return table


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
    -inf and the loss entry point reports infeasibility.  It comes from
    the loop that fills logBeta too (:func:`_sweep`), and is the logAlpha
    half of that joint table as a view.
    """
    return _sweep(*_single(lat, post))[:, :lat.num_nodes]


def backward_vars(lat: Lattice, post: PosteriorTensor) -> np.ndarray:
    """Backward table logBeta of shape (T + 1, num_nodes).

    logBeta[t, g] sums, over continuations that finish the alignment from
    node g after frame t, the log product of remaining edge weights and
    posteriors, including the terminal weight of the edge into the end
    node.  Row T holds that terminal weight for nodes with an end edge and
    -inf elsewhere; the recursion fills rows T-1 down to 1, and row 0 is
    -inf.  It comes from the loop that fills logAlpha too (:func:`_sweep`),
    and is the logBeta half of that joint table as a view, reversed in time.
    """
    return _sweep(*_single(lat, post))[::-1, lat.num_nodes:]


def marginal(
    lat: Lattice, post: PosteriorTensor, alpha: np.ndarray, beta: np.ndarray, t: int
) -> float:
    """Log marginal evaluated at frame t by joining the tables over edges.

    The result is the same (up to rounding) for every t in 1..T, which is
    the cross-check exploited by the verification suite.
    """
    frames = post.num_frames
    if not _is_int(t):
        raise ValueError(f"frame index t must be an integer; got {t!r}")
    if not 1 <= t <= frames:
        raise ValueError(f"frame index t={t} outside 1..{frames}")
    shape = (frames + 1, lat.num_nodes)
    for name, table in (("alpha", alpha), ("beta", beta)):
        if np.shape(table) != shape:
            raise ValueError(f"{name} must have shape {shape}; got {np.shape(table)}")
    stack = _stack([(lat, post)])
    edge = _edge_scores(stack, post.logits[t - 1:t], post.lse[t - 1:t])[0]
    scores = alpha[t - 1, stack.src] + edge + beta[t, stack.dst]
    return float(_logsumexp(scores)[0])


def log_marginal(lat: Lattice, post: PosteriorTensor) -> float:
    """Log of the total alignment probability; raises
    :class:`InfeasibleLengthError` when it is -inf, that is when no
    alignment of length T exists or every one crosses a zero-weight edge.
    It is read from the logAlpha half of the joint table (:func:`_sweep`)."""
    stack, scores = _single(lat, post)
    (outcome,) = _log_marginals(stack, _sweep(stack, scores))
    if isinstance(outcome, InfeasibleLengthError):
        raise outcome
    return outcome


def _log_marginals(stack: _Stack, alpha: np.ndarray) -> list[float | InfeasibleLengthError]:
    """Each member's log marginal, the log-sum-exp over its end edges of
    logAlpha row T_b plus the terminal weight, or the
    :class:`InfeasibleLengthError` for a -inf one, whose ``min_frames``
    comes from a breadth-first search over the member's edges in the
    stack.  ``alpha`` may be the whole joint table of :func:`_sweep`:
    end-edge sources are nodes below N, so only its logAlpha columns are
    read.  One gather reads every end edge; members with the same end-edge
    count share one :func:`_logsumexp` over the rows of a (members, count)
    array."""
    ends = alpha[stack.final_frames, stack.final_src] + stack.final_weight
    counts = np.diff(stack.finals)
    logp = np.empty(counts.size)
    for count in set(counts.tolist()):
        members = np.flatnonzero(counts == count)
        logp[members] = _logsumexp(ends[stack.finals[members][:, None] + np.arange(count)])[:, 0]
    outcomes: list[float | InfeasibleLengthError] = logp.tolist()
    for b in np.flatnonzero(logp == NEG_INF).tolist():
        edges, finals = slice(*stack.edges[b:b + 2]), slice(*stack.finals[b:b + 2])
        fewest = _fewest_emissions_from(int(stack.start[b]), stack.src[edges], stack.dst[edges],
                                        stack.final_src[finals])
        outcomes[b] = InfeasibleLengthError(stack.frames[b], fewest)
    return outcomes


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

    The edge scores w_e + log p(t, i_e, k_e) are gathered once, from the
    logits and their log normalizer, in one (T, E) array.  One frame loop
    reads it over the lattice and its reverse at once, as one graph of two
    disjoint parts, and fills logAlpha and logBeta; the array then becomes
    the occupancy buffer.  The logits are exponentiated once: the pass
    that gives their log normalizer, lse = peak + log(total) with
    total = sum_k exp(h - peak), writes exp(h - peak) into the gradient's
    own buffer, and p = exp(h - peak) / total comes out of the one
    in-place scale by occ(t, i) / total; the (T, S, V) log-softmax is
    never written.  This is :func:`batch_loss_and_grad` of the one pair.
    """
    (outcome,) = batch_loss_and_grad([(lat, post)])
    if isinstance(outcome, InfeasibleLengthError):
        raise outcome
    return outcome


def batch_loss_and_grad(
    pairs: Iterable[tuple[Lattice, PosteriorTensor]],
) -> list[LossResult | InfeasibleLengthError]:
    """:func:`loss_and_grad` of each (lattice, posteriors) pair, in order,
    through one frame recursion per vocabulary size.

    A member whose marginal is -inf comes back as the
    :class:`InfeasibleLengthError` that :func:`loss_and_grad` would raise;
    any other error raises for the batch.  The pairs are grouped by their
    tensors' vocabulary size, in order of first appearance, and each
    group is scored by one :func:`_stack_loss_and_grad` call: its lattices
    are concatenated with node offsets into one :class:`_Stack`, a graph
    of disjoint parts (:func:`_stack`), and scored against one tensor.  A
    group of one member passes its own tensor, which is read as it is; the
    tensors of a larger group are copied into one new tensor in the layout
    a training step scores (:func:`_side_by_side`).  Members of one group
    share a vocabulary, so no pad enters a row's peak or sum.  A member's
    ``grad`` is a view of its group's gradient buffer, so keeping one keeps
    that buffer alive.  Each member's result equals its own
    :func:`loss_and_grad` bit for bit: every cell goes through the same
    floating-point operations in the same order.

    What the grouping costs: a batch that mixes vocabulary sizes runs one
    frame loop per distinct size; the new tensor of a larger group checks
    its logits for finite values again; and when several members are bad,
    the ``ValueError`` names the first bad member of the first group that
    holds one, which need not be the batch's first bad member.
    """
    pairs = list(pairs)
    groups: dict[int, list[int]] = {}
    for b, (_, post) in enumerate(pairs):
        groups.setdefault(post.vocab_size, []).append(b)
    outcomes: list = [None] * len(pairs)
    for members in groups.values():
        group = [pairs[b] for b in members]
        stack = _stack(group)
        post = group[0][1] if len(group) == 1 else PosteriorTensor(
            _side_by_side([tensor.logits for _, tensor in group], stack.states))
        for b, outcome in zip(members, _stack_loss_and_grad(stack, post)):
            outcomes[b] = outcome
    return outcomes


def _stack_loss_and_grad(stack: _Stack, post: PosteriorTensor) -> list[LossResult | InfeasibleLengthError]:
    """:func:`batch_loss_and_grad` of the stack's members against one
    tensor ``post`` that holds their logits as :func:`_side_by_side` lays
    them out: member b takes frames :T_b of state columns
    states[b]:states[b + 1], and every member has the tensor's vocabulary.
    :func:`~graphtransducer.model.train_step` passes the stack that
    :func:`~graphtransducer.lattice._build_stack` writes from its labels,
    with the one tensor of its logits.

    First one pass over the tensor (:meth:`PosteriorTensor._normalize`)
    gives ``lse`` and the row sums ``total``, and writes exp(h - peak)
    into the gradient buffer, with no copy of the logits.  One gather
    reads every edge score into one (max T_b, total E) array, -inf past
    each member's own T_b.  One frame loop fills logAlpha and logBeta for
    every member (:func:`_sweep`): each member reads its log marginal from
    logAlpha row T_b, and the loop writes the member's terminal weights
    into logBeta row T_b before it reads that row.  The log marginals come
    from one gather of logAlpha at every member's end edges and one
    log-sum-exp per distinct end-edge count.  Every member goes through
    the occupancy pass; an infeasible member's log P is taken as +inf
    there, so its occupancies come out exactly 0, never NaN.  The
    occupancies are grouped once over (state column, label) keys, and one
    in-place scale of the exponentials by occ(t, i) / total, then the
    scatter of occ(t, i, k), gives every gradient; a member's ``grad`` is
    the view [:T_b, states[b]:states[b + 1]] of it.  Pad rows past a
    member's T_b have occupancy 0, so their gradient is 0 with no
    floating-point warning.
    """
    grad = np.empty(post.logits.shape)
    lse, total = post._normalize(grad)
    scores = _edge_scores(stack, post.logits, lse)
    table = _sweep(stack, scores)
    alpha, beta = table[:, :stack.nodes[-1]], table[::-1, stack.nodes[-1]:]
    outcomes: list = _log_marginals(stack, alpha)

    # the scores become occ[t - 1, e] in place; alpha - log P goes in before beta
    logp = [outcome if isinstance(outcome, float) else np.inf for outcome in outcomes]
    occ = scores
    occ += alpha[:-1, stack.src] - np.repeat(logp, np.diff(stack.edges))
    occ += beta[1:, stack.dst]
    np.exp(occ, out=occ)

    # each edge's (state column, label) pair is keyed column * vocab + label
    vocab = post.vocab_size
    pair_keys, pair_of_edge = np.unique(stack.column * vocab + stack.label, return_inverse=True)
    pair_column, pair_label = np.divmod(pair_keys, vocab)
    occ_pair = _group_columns(occ, pair_of_edge, pair_keys.size)
    occ_state = _group_columns(occ_pair, pair_column, stack.states[-1])

    # exp(h - peak) * (occ(t, i) / total) - occ(t, i, k) for the whole stack
    # at once; cells past a member's frames are never returned
    grad *= occ_state[:, :, None] / total
    grad[:, pair_column, pair_label] -= occ_pair
    for b, outcome in enumerate(outcomes):
        if isinstance(outcome, float):
            member = grad[:stack.frames[b], stack.states[b]:stack.states[b + 1]]
            outcomes[b] = LossResult(loss=-outcome, log_marginal=outcome, grad=member)
    return outcomes
