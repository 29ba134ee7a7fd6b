import gc
import json
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphtransducer.loss as gt_loss
import graphtransducer.model as gt_model
from graphtransducer import (
    BLANK,
    CTC_LIKE,
    MONO_RNNT,
    TOPOLOGIES,
    Edge,
    InfeasibleLengthError,
    Lattice,
    Node,
    PosteriorTensor,
    TopologySpec,
    ToyModel,
    backward_vars,
    batch_loss_and_grad,
    brute_force_marginal,
    build_lattice,
    deserialize,
    finite_diff_grad,
    forward_vars,
    log_marginal,
    loss_and_grad,
    make_synthetic_task,
    marginal,
    reference_ctc,
    reference_monornnt,
    serialize,
    train_step,
    validate,
)
from graphtransducer.loss import (
    _scatter_logsumexp,
    _side_by_side,
    _single,
    _stack,
    _stack_loss_and_grad,
    _sweep,
)
from graphtransducer.oracle import log_softmax
from graphtransducer.posteriors import _BLOCK_BYTES, _logsumexp
from graphtransducer.verify import FD_STEP, GRAD_TOL, ORACLE_TOL, ROW_SUM_TOL, random_case

NEG_INF = float("-inf")


def ctc_a(vocab=3):
    # nodes: 0 start, 1 blank0, 2 label-a, 3 blank1, 4 end
    return build_lattice(TopologySpec(CTC_LIKE, (1,), vocab))


def single_path_lattice(vocab=3):
    # start -> a -> end; the loss collapses to cross entropy on one frame
    return Lattice(
        (Node(0, "start"), Node(1, 1), Node(2, "end")),
        (Edge(0, 1, 0.0, 0), Edge(1, 2, 0.0, None)),
        num_states=1,
        vocab_size=vocab,
    )


def rand_post(seed, frames, states, vocab):
    return PosteriorTensor(np.random.default_rng(seed).normal(0, 1, (frames, states, vocab)))


def test_forward_initial_row_is_start_only():
    lat = ctc_a()
    post = rand_post(0, 2, 2, 3)
    alpha = forward_vars(lat, post)
    assert alpha[0, 0] == 0.0
    assert np.all(alpha[0, 1:] == NEG_INF)


def test_forward_single_frame_single_edge():
    lat = ctc_a()
    post = rand_post(1, 1, 2, 3)
    alpha = forward_vars(lat, post)
    # blank0 is reached but cannot finish; blank1 is not reached in one frame
    assert alpha[1, 2] == post.logprobs[0, 0, 1]
    assert alpha[1, 1] == post.logprobs[0, 0, 0]
    assert alpha[1, 3] == NEG_INF


def test_three_path_marginal_matches_hand_formula():
    lat = ctc_a()
    post = rand_post(2, 2, 2, 3)
    lp = post.logprobs
    # alignments: (blank, a), (a, blank1), (a, a); states are labels consumed
    expected = np.log(
        np.exp(lp[0, 0, 0] + lp[1, 0, 1])
        + np.exp(lp[0, 0, 1] + lp[1, 1, 0])
        + np.exp(lp[0, 0, 1] + lp[1, 1, 1])
    )
    assert log_marginal(lat, post) == pytest.approx(expected, abs=1e-12)


def test_backward_terminal_row():
    lat = ctc_a()
    post = rand_post(3, 2, 2, 3)
    beta = backward_vars(lat, post)
    assert beta[2, 2] == 0.0 and beta[2, 3] == 0.0  # unit end weights
    assert beta[2, 0] == NEG_INF and beta[2, 1] == NEG_INF


def test_backward_one_step_ctc():
    lat = ctc_a()
    post = rand_post(4, 2, 2, 3)
    beta = backward_vars(lat, post)
    lp = post.logprobs
    # from the label node with one frame left: repeat a or move to blank1
    assert beta[1, 2] == pytest.approx(np.logaddexp(lp[1, 1, 0], lp[1, 1, 1]), abs=1e-12)


def test_backward_one_step_mono_has_no_self_loop():
    lat = build_lattice(TopologySpec(MONO_RNNT, (1,), 3))
    post = rand_post(5, 2, 2, 3)
    beta = backward_vars(lat, post)
    assert beta[1, 2] == pytest.approx(post.logprobs[1, 1, 0], abs=1e-12)


def test_marginal_same_at_every_frame():
    lat = ctc_a()
    post = rand_post(6, 2, 2, 3)
    alpha = forward_vars(lat, post)
    beta = backward_vars(lat, post)
    m1 = marginal(lat, post, alpha, beta, 1)
    m2 = marginal(lat, post, alpha, beta, 2)
    assert abs(m1 - m2) < 1e-12


def test_marginal_rejects_bad_frame_index():
    lat = ctc_a()
    post = rand_post(7, 2, 2, 3)
    alpha = forward_vars(lat, post)
    beta = backward_vars(lat, post)
    with pytest.raises(ValueError, match="outside"):
        marginal(lat, post, alpha, beta, 0)
    with pytest.raises(ValueError, match="outside"):
        marginal(lat, post, alpha, beta, 3)


@pytest.mark.parametrize("t", [1.0, 2.5, True])
def test_marginal_rejects_a_frame_index_that_is_not_an_integer(t):
    lat, post = ctc_a(), rand_post(7, 2, 2, 3)
    alpha, beta = forward_vars(lat, post), backward_vars(lat, post)
    with pytest.raises(ValueError, match="frame index t must be an integer"):
        marginal(lat, post, alpha, beta, t)


def test_marginal_rejects_tables_of_another_lattice():
    lat, post = ctc_a(), rand_post(7, 2, 2, 3)
    alpha, beta = forward_vars(lat, post), backward_vars(lat, post)
    longer = build_lattice(TopologySpec(CTC_LIKE, (1, 2), 3))
    other = PosteriorTensor(np.zeros((2, 3, 3)))
    wide_alpha, wide_beta = forward_vars(longer, other), backward_vars(longer, other)
    with pytest.raises(ValueError, match=r"alpha must have shape \(3, 5\)"):
        marginal(lat, post, wide_alpha, beta, 1)
    with pytest.raises(ValueError, match=r"beta must have shape \(3, 5\)"):
        marginal(lat, post, alpha, wide_beta, 1)
    # a numpy integer is an integer frame index
    assert marginal(lat, post, alpha, beta, np.int64(2)) == marginal(lat, post, alpha, beta, 2)


def test_forward_backward_terminal_consistency():
    rng = np.random.default_rng(8)
    for _ in range(20):
        lat, post, _ = random_case(rng, CTC_LIKE, 6, 3, 4)
        alpha = forward_vars(lat, post)
        beta = backward_vars(lat, post)
        terminal = np.logaddexp.reduce(alpha[-1, lat.final.src] + lat.final.log_weight)
        assert marginal(lat, post, alpha, beta, 1) == pytest.approx(terminal, abs=1e-10)


def test_single_path_loss_is_cross_entropy():
    lat = single_path_lattice()
    post = rand_post(9, 1, 1, 3)
    result = loss_and_grad(lat, post)
    assert result.loss == pytest.approx(-post.logprobs[0, 0, 1], abs=1e-12)
    expected_grad = np.exp(post.logprobs[0, 0]) - np.array([0.0, 1.0, 0.0])
    assert np.allclose(result.grad[0, 0], expected_grad, atol=1e-12)


def test_loss_result_fields_are_consistent():
    lat = ctc_a()
    post = rand_post(10, 3, 2, 3)
    result = loss_and_grad(lat, post)
    assert result.loss == -result.log_marginal
    assert result.grad.shape == post.logits.shape


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_gradient_rows_sum_to_zero(kind):
    rng = np.random.default_rng(11)
    for _ in range(10):
        lat, post, _ = random_case(rng, kind, 5, 3, 4)
        grad = loss_and_grad(lat, post).grad
        assert np.abs(grad.sum(axis=2)).max() < 1e-9


def test_states_unused_by_the_lattice_get_zero_gradient():
    lat = ctc_a()  # references states 0 and 1 only
    post = rand_post(12, 2, 4, 3)  # two extra states
    grad = loss_and_grad(lat, post).grad
    assert np.all(grad[:, 2:, :] == 0.0)


def test_infeasible_length_raises():
    lat = build_lattice(TopologySpec(CTC_LIKE, (1, 1), 2))  # needs 3 frames
    post = rand_post(13, 2, 3, 2)
    with pytest.raises(InfeasibleLengthError) as info:
        loss_and_grad(lat, post)
    assert info.value.frames == 2 and info.value.min_frames == 3
    with pytest.raises(InfeasibleLengthError):
        log_marginal(lat, post)


def test_forward_vars_do_not_raise_on_infeasible_length():
    lat = build_lattice(TopologySpec(CTC_LIKE, (1, 1), 2))
    post = rand_post(14, 2, 3, 2)
    alpha = forward_vars(lat, post)
    assert alpha[0, 0] == 0.0
    assert np.all(alpha[-1, lat.final.src] == NEG_INF)


def marginal_at_1(lat, post):
    tables = np.zeros((post.num_frames + 1, len(lat.nodes)))
    return marginal(lat, post, tables, tables, 1)


ENTRY_POINTS = [forward_vars, backward_vars, marginal_at_1, log_marginal, loss_and_grad]


def test_state_count_mismatch_is_an_error():
    lat = build_lattice(TopologySpec(CTC_LIKE, (1, 2), 3))  # states up to 2
    post = rand_post(15, 3, 2, 3)
    for entry in ENTRY_POINTS:
        with pytest.raises(ValueError, match="state"):
            entry(lat, post)


def test_vocab_mismatch_is_an_error():
    lat = build_lattice(TopologySpec(CTC_LIKE, (2,), 3))
    post = rand_post(16, 2, 2, 2)
    for entry in ENTRY_POINTS:
        with pytest.raises(ValueError, match="vocab"):
            entry(lat, post)


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_total_probability_never_exceeds_one(kind):
    rng = np.random.default_rng(17)
    for _ in range(20):
        lat, post, _ = random_case(rng, kind, 6, 3, 4)
        assert np.exp(log_marginal(lat, post)) <= 1.0 + 1e-9


def test_uniform_posteriors_count_paths():
    # with uniform rows every alignment weighs K^-T, so the marginal counts paths
    lat = ctc_a(vocab=4)
    post = PosteriorTensor(np.zeros((2, 2, 4)))
    assert log_marginal(lat, post) == pytest.approx(np.log(3 / 16), abs=1e-12)


def test_longer_sequences_against_mono_recursion():
    # cross-check a moderately sized case against the independent recursion
    from graphtransducer import reference_monornnt

    rng = np.random.default_rng(18)
    labels = tuple(rng.integers(1, 5, size=4))
    lat = build_lattice(TopologySpec(MONO_RNNT, labels, 5))
    post = PosteriorTensor(rng.normal(0, 1, (12, 5, 5)))
    assert -log_marginal(lat, post) == pytest.approx(
        reference_monornnt(labels, log_softmax(post.logits)), abs=1e-10
    )


def test_zero_weight_edge_gives_finite_loss_or_infeasible():
    # -inf is a legal zero-weight edge; cutting any one edge of the lattice
    # must never produce a NaN gradient or a finite wrong marginal
    text = serialize(build_lattice(TopologySpec(MONO_RNNT, (1, 2), 3)))
    rng = np.random.default_rng(19)
    for cut in range(len(json.loads(text)["edges"])):
        doc = json.loads(text)
        doc["edges"][cut]["logw"] = float("-inf")
        lat = deserialize(json.dumps(doc))
        for frames in range(1, 6):
            post = PosteriorTensor(rng.normal(0, 1, (frames, 3, 3)))
            try:
                result = loss_and_grad(lat, post)
            except InfeasibleLengthError as exc:
                # log_marginal raises exactly when loss_and_grad does,
                # including when every path crosses the cut edge; then
                # alignments exist, and the message must not deny it
                with pytest.raises(InfeasibleLengthError):
                    log_marginal(lat, post)
                if frames >= exc.min_frames:
                    assert "exist" not in str(exc)
                    assert "nonzero probability" in str(exc)
                continue
            assert np.isfinite(result.loss)
            assert np.all(np.isfinite(result.grad))
            assert result.log_marginal == pytest.approx(log_marginal(lat, post), abs=1e-12)


def test_loss_accepts_lattice_that_validate_rejects():
    # two start edges emit label 1, so validate reports a determinism
    # violation; the loss still sums every path exactly
    lat = Lattice(
        (Node(0, "start"), Node(1, 1), Node(2, 1), Node(3, BLANK), Node(4, "end")),
        (
            Edge(0, 1, 0.0, 0),
            Edge(0, 2, -0.5, 0),
            Edge(1, 3, 0.0, 1),
            Edge(2, 2, 0.0, 1),
            Edge(2, 3, -1.0, 1),
            Edge(3, 3, 0.0, 2),
            Edge(1, 4, 0.0, None),
            Edge(3, 4, -0.25, None),
        ),
        num_states=3,
        vocab_size=3,
    )
    assert any(v.startswith("determinism:") for v in validate(lat))
    for frames in (1, 2, 4):
        post = rand_post(20 + frames, frames, 3, 3)
        assert log_marginal(lat, post) == pytest.approx(
            brute_force_marginal(lat, post), abs=ORACLE_TOL
        )
        # the only hand-built test lattice with nonzero finite weights: they
        # enter the edge scores the gradient is made from
        grad = loss_and_grad(lat, post).grad
        fd = finite_diff_grad(lat, post, step=FD_STEP)
        scale = max(np.abs(grad).max(), np.abs(fd).max(), 1e-8)
        assert np.abs(grad - fd).max() < GRAD_TOL * scale


def test_emitting_edge_without_state_is_an_error():
    lat = Lattice(
        (Node(0, "start"), Node(1, 1), Node(2, "end")),
        (Edge(0, 1, 0.0, None), Edge(1, 2, 0.0, None)),
        num_states=1,
        vocab_size=3,
    )
    post = rand_post(24, 2, 1, 3)
    for entry in (log_marginal, loss_and_grad):
        with pytest.raises(ValueError, match="carries no decoder state"):
            entry(lat, post)


def occupancy_case(rng, kind):
    """A case past check_gradients' reach: T up to 40, U up to 8, decoder
    states the lattice never uses, and a top label it never emits.  ctc-like
    cases repeat a label and tie the logits across states, so plain CTC over
    the shared (T, vocab) logits is their reference."""
    vocab = int(rng.integers(4, 7))
    labels = [int(k) for k in rng.integers(1, vocab - 1, int(rng.integers(3, 9)))]
    if kind == CTC_LIKE:
        labels[1] = labels[0]
    lat = build_lattice(TopologySpec(kind, tuple(labels), vocab))
    frames = int(rng.integers(max(lat.min_emissions, 20), 41))
    states = len(labels) + 1 + int(rng.integers(1, 3))
    if kind == CTC_LIKE:
        free = rng.normal(0, 1, (frames, vocab))
        logits = np.repeat(free[:, None, :], states, axis=1)
        ref_loss = lambda x: reference_ctc(labels, log_softmax(x))  # noqa: E731
    else:
        free = logits = rng.normal(0, 1, (frames, states, vocab))
        ref_loss = lambda x: reference_monornnt(labels, log_softmax(x))  # noqa: E731
    return lat, PosteriorTensor(logits), len(labels), free, ref_loss


def per_edge_grad(lat, post):
    """p(t,i,k) * occ(t,i) - occ(t,i,k) accumulated one edge at a time."""
    alpha, beta = forward_vars(lat, post), backward_vars(lat, post)
    logp = log_marginal(lat, post)
    lp = post.logprobs
    grad = np.zeros_like(lp)
    for t in range(post.num_frames):
        for src, dst, i, k, w in zip(*lat.emit):
            occ = np.exp(alpha[t, src] + w + lp[t, i, k] + beta[t + 1, dst] - logp)
            grad[t, i] += np.exp(lp[t, i]) * occ
            grad[t, i, k] -= occ
    return grad


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_occupancy_gradient_at_larger_shapes(kind):
    rng = np.random.default_rng(20 if kind == CTC_LIKE else 21)
    for _ in range(4):
        lat, post, n_labels, free, ref_loss = occupancy_case(rng, kind)
        result = loss_and_grad(lat, post)
        grad = result.grad
        assert result.loss == pytest.approx(ref_loss(free), rel=1e-10)
        assert np.abs(grad - per_edge_grad(lat, post)).max() < 1e-12

        # central differences of the oracle on sampled coordinates; tied
        # logits receive the gradient summed over decoder states
        analytic = grad.sum(axis=1) if kind == CTC_LIKE else grad
        scale = max(np.abs(analytic).max(), 1e-8)
        for flat in rng.choice(analytic.size, min(20, analytic.size), replace=False):
            idx = np.unravel_index(flat, analytic.shape)
            x = free.copy()
            x[idx] += FD_STEP
            plus = ref_loss(x)
            x[idx] -= 2 * FD_STEP
            fd = (plus - ref_loss(x)) / (2 * FD_STEP)
            assert abs(analytic[idx] - fd) < GRAD_TOL * scale

        # the top label is emitted nowhere, so its gradient is p * occ(t, i);
        # each frame emits exactly once, so occupancies of a frame sum to one
        top = post.vocab_size - 1
        occ = grad[:, :, top] / np.exp(post.logprobs[:, :, top])
        assert np.abs(occ.sum(axis=1) - 1.0).max() < 1e-9
        assert np.all(grad[:, n_labels + 1:] == 0.0)


@st.composite
def loss_batches(draw, one_vocab=False):
    """1-6 (lattice, posteriors) pairs of both topologies with mixed T:
    repeated labels, -inf edge weights, a Lattice object used again by the
    next member, and members too short for their labels; with ``one_vocab``
    every member has the same vocabulary, as in a training step."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shared = draw(st.integers(2, 4)) if one_vocab else None
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        if batch and draw(st.booleans()):
            lat = batch[-1][0]
        else:
            vocab = shared or draw(st.integers(2, 4))
            labels = tuple(draw(st.lists(st.integers(1, vocab - 1), max_size=4)))
            lat = build_lattice(TopologySpec(draw(st.sampled_from(TOPOLOGIES)), labels, vocab))
            cut = draw(st.sets(st.integers(0, len(lat.edges) - 1), max_size=2))
            edges = tuple(
                Edge(e.src, e.dst, NEG_INF if j in cut else e.log_weight, e.state)
                for j, e in enumerate(lat.edges)
            )
            lat = Lattice(lat.nodes, edges, lat.num_states, lat.vocab_size)
        frames = max(1, lat.min_emissions + draw(st.integers(-2, 4)))
        batch.append((lat, rand_post(int(rng.integers(2**32)), frames, lat.num_states, lat.vocab_size)))
    return batch


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.one_of(loss_batches(), loss_batches(one_vocab=True)))
def test_batch_equals_per_utterance_bit_for_bit(batch):
    outcomes = batch_loss_and_grad(batch)
    assert len(outcomes) == len(batch)
    for (lat, post), outcome in zip(batch, outcomes):
        try:
            alone = loss_and_grad(lat, post)
        except InfeasibleLengthError as exc:
            assert isinstance(outcome, InfeasibleLengthError)
            assert (outcome.frames, outcome.min_frames) == (exc.frames, exc.min_frames)
            continue
        assert outcome.loss == alone.loss and outcome.log_marginal == alone.log_marginal
        assert np.array_equal(outcome.grad, alone.grad)


def test_a_members_frames_past_its_own_count_stay_out_of_the_batch():
    # a huge self-loop weight would overflow the padded logAlpha rows of a
    # one-frame member to inf, and give inf - inf in its occupancies, if
    # the edge scores past its frame count were not -inf; both members have
    # one vocabulary, so they share one layout
    nodes = (Node(0, "start"), Node(1, 1), Node(2, "end"))
    edges = (Edge(0, 1, 0.0, 0), Edge(1, 1, 1e308, 0), Edge(1, 2, 0.0, None))
    batch = [(Lattice(nodes, edges, num_states=1, vocab_size=3), rand_post(40, 1, 1, 3)),
             (ctc_a(), rand_post(41, 4, 2, 3))]
    for (lat, post), outcome in zip(batch, batch_loss_and_grad(batch)):
        alone = loss_and_grad(lat, post)
        assert outcome.loss == alone.loss and np.array_equal(outcome.grad, alone.grad)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(loss_batches(one_vocab=True))
def test_packed_members_equal_their_own_tensors_bit_for_bit(batch):
    # the members' logits in one layout normalized by one tensor, as
    # train_step packs them, scored by the core against their own tensors
    stack = _stack(batch)
    pack = PosteriorTensor(_side_by_side([post.logits for _, post in batch], stack.states))
    outcomes = _stack_loss_and_grad(stack, pack)
    for (lat, post), lo, hi, outcome in zip(batch, stack.states, stack.states[1:], outcomes):
        assert np.array_equal(pack.lse[:post.num_frames, lo:hi], post.lse)
        try:
            alone = loss_and_grad(lat, post)
        except InfeasibleLengthError as exc:
            assert isinstance(outcome, InfeasibleLengthError)
            assert (outcome.frames, outcome.min_frames) == (exc.frames, exc.min_frames)
            continue
        assert outcome.loss == alone.loss and outcome.log_marginal == alone.log_marginal
        assert outcome.grad.shape == alone.grad.shape and np.array_equal(outcome.grad, alone.grad)


# frames of 3 states by 50 labels in one block of a pass over a tensor
STEP = _BLOCK_BYTES // (3 * 50 * 8)


@st.composite
def block_batches(draw):
    """1 to 3 tensors of one vocabulary, with frame counts at, just either
    side of, and past three blocks of 3 states by 50 labels, at logit
    scales 0.1 to 100, each with a lattice of its state count."""
    vocab, batch = draw(st.sampled_from([2, 7, 50])), []
    for _ in range(draw(st.integers(1, 3))):
        states = draw(st.integers(1, 3))
        frames = draw(st.sampled_from([1, STEP - 1, STEP, STEP + 1, 3 * STEP + 2]))
        scale = draw(st.sampled_from([0.1, 1.0, 10.0, 100.0]))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        logits = rng.normal(0, scale, (frames, states, vocab)) + rng.normal(0, scale, (frames, states, 1))
        lat = build_lattice(TopologySpec(CTC_LIKE, (1,) * (states - 1), vocab))
        batch.append((lat, PosteriorTensor(logits)))
    return batch


@settings(max_examples=60, derandomize=True, deadline=None)
@given(block_batches())
def test_the_fused_pass_gives_lse_bit_for_bit_and_the_softmax_within_its_rounding(batch):
    for _, post in batch:
        exps = np.empty(post.logits.shape)
        lse, total = post._normalize(exps)
        # the lse-only pass of a fresh tensor, with the tensor's kept lse
        alone = PosteriorTensor(post.logits).lse
        assert np.array_equal(lse, alone) and np.array_equal(post.lse, alone)
        got = exps / total
        want = np.exp(post.logits - alone)
        # rounding of lse, h - lse and h - peak, and of the sum and quotient,
        # in ulps of p, with a factor 2 to spare
        h = post.logits
        peak = h.max(axis=-1, keepdims=True)
        budget = np.abs(alone) + np.abs(h - alone) + np.abs(h - peak) + 4 * np.log2(post.vocab_size) + 6
        assert np.all(np.abs(got - want) <= 2 * budget * np.spacing(got))
    # the time-pad rows of a one-vocabulary layout give a zero gradient
    # with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        outcomes = batch_loss_and_grad(batch)
    stack = _stack(batch)
    # the members share one vocabulary, so one gradient buffer
    for result in [o for o in outcomes if not isinstance(o, InfeasibleLengthError)][:1]:
        for (_, post), lo, hi in zip(batch, stack.states, stack.states[1:]):
            assert not result.grad.base[post.num_frames:, lo:hi].any()


def _per_direction_logsumexp(values, index, size):
    # the reference step: -inf peaks set to 0, and np.add.at into zeros
    peak = np.full(size, NEG_INF)
    np.maximum.at(peak, index, values)
    peak[peak == NEG_INF] = 0.0
    shifted = np.subtract(values, peak[index])
    total = np.zeros(size)
    np.add.at(total, index, np.exp(shifted, out=shifted))
    return peak + np.log(total, out=np.full_like(total, NEG_INF), where=total > 0.0)


def _per_direction_sweep(table, scores, gather, scatter):
    for s, row in enumerate(scores, start=1):
        table[s] = _per_direction_logsumexp(table[s - 1, gather] + row, scatter, table.shape[1])


def stacked_scores(batch):
    """The batch as one stack, and its edge scores as the loss gathers them,
    each member's from its own tensor, -inf past the member's frames."""
    stack = _stack(batch)
    scores = np.full((max(post.num_frames for _, post in batch), stack.src.size), NEG_INF)
    for (lat, post), lo, hi in zip(batch, stack.edges, stack.edges[1:]):
        scores[:post.num_frames, lo:hi] = _single(lat, post)[1]
    return stack, scores


def per_direction_tables(stack, scores):
    """logAlpha and logBeta from one loop each, logBeta in one segment
    between each two distinct T_b, seeded at the segment's top row."""
    alpha = np.full((len(scores) + 1, stack.nodes[-1]), NEG_INF)
    alpha[0, stack.start] = 0.0
    _per_direction_sweep(alpha, scores, stack.src, stack.dst)
    beta = np.full_like(alpha, NEG_INF)
    ends = sorted(set(stack.frames), reverse=True)
    for hi, lo in zip(ends, ends[1:] + [1]):
        seed = stack.final_frames == hi
        beta[hi, stack.final_src[seed]] = stack.final_weight[seed]
        _per_direction_sweep(beta[hi:lo - 1:-1], scores[hi - 1:lo - 1:-1], stack.dst, stack.src)
    return alpha, beta


@st.composite
def sweep_batches(draw):
    """:func:`loss_batches`, with lattices whose end node no path reaches
    put in at random places."""
    batch = draw(loss_batches())
    for _ in range(draw(st.integers(0, 2))):
        cut = Lattice((Node(0, "start"), Node(1, 0), Node(2, "end")), (Edge(0, 1, 0.0, 0),), 1, 2)
        post = rand_post(draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 6)), 1, 2)
        batch.insert(draw(st.integers(0, len(batch))), (cut, post))
    return batch


@settings(max_examples=200, derandomize=True, deadline=None)
@given(sweep_batches())
def test_the_joint_sweep_equals_one_sweep_per_direction_bit_for_bit(batch):
    stack, scores = stacked_scores(batch)
    alpha, beta = per_direction_tables(stack, scores)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        table = _sweep(stack, scores)
    nodes = stack.nodes[-1]
    assert np.array_equal(table[:, :nodes], alpha)
    assert np.array_equal(table[::-1, nodes:], beta)


@st.composite
def single_members(draw):
    """One (lattice, posteriors) pair: a member of :func:`sweep_batches`, or
    a feasible ``random_case`` of either topology."""
    if draw(st.booleans()):
        return draw(st.sampled_from(draw(sweep_batches())))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_case(rng, draw(st.sampled_from(TOPOLOGIES)), 8, 4, 4)[:2]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(single_members())
def test_the_public_tables_and_marginal_equal_one_sweep_per_direction_bit_for_bit(pair):
    lat, post = pair
    alpha, beta = per_direction_tables(*stacked_scores([pair]))
    assert np.array_equal(forward_vars(lat, post), alpha)
    assert np.array_equal(backward_vars(lat, post), beta)
    want = float(_logsumexp(alpha[-1, lat.final.src] + lat.final.log_weight)[0])
    if want == NEG_INF:
        with pytest.raises(InfeasibleLengthError) as info:
            log_marginal(lat, post)
        with pytest.raises(InfeasibleLengthError) as loss_info:
            loss_and_grad(lat, post)
        got, expected = info.value, loss_info.value
        assert (got.frames, got.min_frames) == (expected.frames, expected.min_frames)
    else:
        assert log_marginal(lat, post) == want == loss_and_grad(lat, post).log_marginal


def traced_peak(call):
    """The peak of memory that ``call`` allocates, in bytes."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_a_lone_tensor_is_not_copied(kind):
    # the gradient buffer is one logits' worth; a copy of the logits (and
    # of lse) on top would take the peak past twice that
    rng = np.random.default_rng(33)
    lat = build_lattice(TopologySpec(kind, tuple(int(k) for k in rng.integers(1, 100, 100)), 100))
    post = PosteriorTensor(rng.normal(0, 1, (500, 101, 100)))
    assert traced_peak(lambda: loss_and_grad(lat, post)) < 1.5 * post.logits.nbytes


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_the_sweep_allocates_little_beyond_its_tables(kind):
    # a (T, 2E) score copy breaks this; it tipped loss-long peak_rss_mb to 191 MB (see CHANGES.md)
    rng = np.random.default_rng(33)
    lat = build_lattice(TopologySpec(kind, tuple(int(k) for k in rng.integers(1, 100, 100)), 100))
    stack, scores = stacked_scores([(lat, PosteriorTensor(rng.normal(0, 1, (500, 101, 100))))])
    tables = 2 * (len(scores) + 1) * lat.num_nodes * 8
    assert traced_peak(lambda: _sweep(stack, scores)) < 1.25 * tables


def test_a_packs_members_are_not_copied():
    rng = np.random.default_rng(34)
    lats = [build_lattice(TopologySpec(kind, tuple(int(k) for k in rng.integers(1, 100, 50)), 100))
            for kind in TOPOLOGIES]
    tables = [rng.normal(0, 1, (frames, 51, 100)) for frames in (250, 200)]
    stack = _stack([(lat, PosteriorTensor(table)) for lat, table in zip(lats, tables)])
    # one tensor normalizes the layout and the core reads it, as in train_step
    pack = PosteriorTensor(_side_by_side(tables, stack.states))
    peak = traced_peak(lambda: _stack_loss_and_grad(stack, pack))
    assert peak < 1.5 * pack.logits.nbytes


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_a_training_steps_tensors_are_freed_without_the_cyclic_collector(monkeypatch, kind):
    # a reference cycle would keep every step's tensor and gradient buffer
    # until a collection, which raises peak memory over a run
    made, buffers = [], []

    def tracked(logits):
        pack = PosteriorTensor(logits)
        made.append(weakref.ref(pack))
        return pack

    def scoring(stack, post):
        outcomes = _stack_loss_and_grad(stack, post)
        # every member's grad is a view of the step's one gradient buffer
        buffers.append(weakref.ref(outcomes[0].grad.base))
        return outcomes

    monkeypatch.setattr(gt_model, "PosteriorTensor", tracked)
    monkeypatch.setattr(gt_model, "_stack_loss_and_grad", scoring)
    model, data = ToyModel(6, 32, 6, seed=1), make_synthetic_task(1, 20, 6, 5)
    gc.disable()
    try:
        train_step(model, data, kind)
        assert len(made) == 1 and len(buffers) == 1
        assert all(ref() is None for ref in made + buffers)
    finally:
        gc.enable()


def test_empty_batch_gives_no_results():
    assert batch_loss_and_grad([]) == []


def test_a_batch_sweeps_once_per_vocabulary_and_keeps_its_order(monkeypatch):
    rng = np.random.default_rng(35)
    batch = []
    for vocab in (3, 2, 3, 4, 2, 3):
        lat = build_lattice(TopologySpec(CTC_LIKE, tuple(int(k) for k in rng.integers(1, vocab, 2)), vocab))
        frames = lat.min_emissions + int(rng.integers(0, 3))
        batch.append((lat, rand_post(int(rng.integers(2**32)), frames, lat.num_states, vocab)))
    alone = [loss_and_grad(lat, post) for lat, post in batch]
    sweeps, sweep = [], gt_loss._sweep

    def counted(stack, scores):
        sweeps.append(len(stack.frames))
        return sweep(stack, scores)

    monkeypatch.setattr(gt_loss, "_sweep", counted)
    # one call per distinct vocabulary, in order of first appearance, with
    # that vocabulary's members
    for members, calls in (([0, 2, 5], [3]), ([0, 1, 2, 3, 4, 5], [3, 2, 1]), ([3, 1], [1, 1])):
        sweeps.clear()
        outcomes = batch_loss_and_grad([batch[b] for b in members])
        assert sweeps == calls
        for b, outcome in zip(members, outcomes):
            assert outcome.loss == alone[b].loss and np.array_equal(outcome.grad, alone[b].grad)


def fan_lattice(weights, vocab=4):
    """start -> one of len(weights) emitting nodes, each with a self-loop and
    an end edge of the given log weight; one end edge per node."""
    n = len(weights)
    nodes = [Node(0, "start")] + [Node(j, j % vocab) for j in range(1, n + 1)] + [Node(n + 1, "end")]
    edges = [Edge(0, j, -0.1 * j, 0) for j in range(1, n + 1)]
    edges += [Edge(j, j, -0.05 * j, 1) for j in range(1, n + 1)]
    edges += [Edge(j, n + 1, w, None) for j, w in zip(range(1, n + 1), weights)]
    return Lattice(tuple(nodes), tuple(edges), num_states=2, vocab_size=vocab)


def test_grouped_terminal_logsumexp_matches_each_member():
    # numpy's pairwise sum groups differently from 8 summands on, so the
    # members sharing an end-edge count (one log-sum-exp per count) include
    # counts 9 and 12; one member's end edges all have zero weight
    rng = np.random.default_rng(30)
    batch = []
    for count, frames in [(1, 3), (2, 1), (9, 4), (12, 2), (9, 6), (2, 5), (1, 2), (12, 3)]:
        batch.append((fan_lattice(rng.normal(0, 2, count)), rand_post(count + frames, frames, 2, 4)))
    batch.append((fan_lattice([NEG_INF] * 9), rand_post(40, 3, 2, 4)))
    outcomes = batch_loss_and_grad(batch)
    for (lat, post), outcome in zip(batch, outcomes):
        # the terminal sum as one 1-D log-sum-exp over this lattice's end edges
        alpha = forward_vars(lat, post)
        alone_logp = float(_logsumexp(alpha[-1, lat.final.src] + lat.final.log_weight)[0])
        try:
            alone = loss_and_grad(lat, post)
        except InfeasibleLengthError as exc:
            assert alone_logp == NEG_INF
            assert isinstance(outcome, InfeasibleLengthError)
            assert (outcome.frames, outcome.min_frames) == (exc.frames, exc.min_frames) == (3, 1)
            with pytest.raises(InfeasibleLengthError) as info:
                log_marginal(lat, post)
            assert (info.value.frames, info.value.min_frames) == (exc.frames, exc.min_frames)
            continue
        assert outcome.log_marginal == alone.log_marginal == log_marginal(lat, post) == alone_logp
        assert outcome.loss == alone.loss
        assert np.array_equal(outcome.grad, alone.grad)
    assert sum(isinstance(o, InfeasibleLengthError) for o in outcomes) == 1


def test_all_infeasible_batch_gives_each_members_error():
    # too few frames on each topology, and end edges that all have zero weight
    batch = [
        (build_lattice(TopologySpec(CTC_LIKE, (1, 1), 3)), rand_post(50, 2, 3, 3)),
        (build_lattice(TopologySpec(MONO_RNNT, (1, 2), 3)), rand_post(51, 1, 3, 3)),
        (fan_lattice([NEG_INF] * 3), rand_post(52, 4, 2, 4)),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outcomes = batch_loss_and_grad(batch)
    for (lat, post), outcome in zip(batch, outcomes):
        with pytest.raises(InfeasibleLengthError) as info:
            loss_and_grad(lat, post)
        assert isinstance(outcome, InfeasibleLengthError)
        assert (outcome.frames, outcome.min_frames) == (info.value.frames, info.value.min_frames)
    assert [(o.frames, o.min_frames) for o in outcomes] == [(2, 3), (1, 2), (4, 1)]


def test_scatter_logsumexp_matches_the_dense_sum_of_each_group():
    # per seed: three groups of each size 0-12 and six all -inf groups,
    # their entries shuffled together; about one entry in five is -inf
    sizes = list(range(13)) * 3 + [1, 2, 3, 5, 8, 12]
    dead = set(range(39, len(sizes)))
    for seed in range(20):
        rng = np.random.default_rng(seed)
        index = np.repeat(np.arange(len(sizes)), sizes)
        rng.shuffle(index)
        values = rng.normal(0, 3, index.size)
        values[rng.random(index.size) < 0.2] = NEG_INF
        values[np.isin(index, list(dead))] = NEG_INF
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = _scatter_logsumexp(values, index, out=np.full(len(sizes), NEG_INF))
        for group, size in enumerate(sizes):
            want = _logsumexp(values[index == group])[0]
            if group in dead or size == 0:
                assert out[group] == want == NEG_INF
            elif size < 8:
                # below 8 terms numpy's pairwise sum adds in order, as np.add.at does
                assert out[group] == want
            else:
                # relative to the result, or to 1 where it is near 0
                assert abs(out[group] - want) <= 1e-15 * max(1.0, abs(want))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        empty = _scatter_logsumexp(np.empty(0), np.empty(0, dtype=np.int64), out=np.full(3, NEG_INF))
    assert empty.tolist() == [NEG_INF] * 3


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_loss_never_builds_logprobs(kind):
    # V = 100 over at least three of the constructor's blocks of frames
    rng = np.random.default_rng(31)
    vocab, labels = 100, tuple(int(k) for k in rng.integers(1, 100, 20))
    states = len(labels) + 1
    frames = 3 * (_BLOCK_BYTES // (states * vocab * 8)) + 5
    if kind == CTC_LIKE:
        logits = np.repeat(rng.normal(0, 1, (frames, 1, vocab)), states, axis=1)
    else:
        logits = rng.normal(0, 1, (frames, states, vocab))
    lat = build_lattice(TopologySpec(kind, labels, vocab))
    post = PosteriorTensor(logits)
    result = loss_and_grad(lat, post)
    batch_loss_and_grad([(lat, post), (lat, post)])
    log_marginal(lat, post)
    alpha, beta = forward_vars(lat, post), backward_vars(lat, post)
    marginal(lat, post, alpha, beta, post.num_frames)
    assert "logprobs" not in post.__dict__

    if kind == CTC_LIKE:
        want = reference_ctc(labels, post.logprobs[:, 0, :])
    else:
        want = reference_monornnt(labels, post.logprobs)
    assert result.loss == pytest.approx(want, abs=ORACLE_TOL)
    assert np.abs(result.grad.sum(axis=2)).max() < ROW_SUM_TOL


def test_unreachable_end_node_is_an_infeasible_member():
    # node 1 has no edge into the end node, so no alignment of any length exists
    cut = Lattice((Node(0, "start"), Node(1, 0), Node(2, "end")), (Edge(0, 1, 0.0, 0),), 1, 2)
    cut_post = PosteriorTensor(np.zeros((2, 1, 2)))
    lat = build_lattice(TopologySpec(CTC_LIKE, (1,), 2))
    post = rand_post(60, 3, 2, 2)
    for call in (log_marginal, loss_and_grad):
        with pytest.raises(InfeasibleLengthError) as info:
            call(cut, cut_post)
        assert (info.value.frames, info.value.min_frames) == (2, None)
        assert "no path from start reaches the end node" in str(info.value)
    infeasible, outcome = batch_loss_and_grad([(cut, cut_post), (lat, post)])
    assert isinstance(infeasible, InfeasibleLengthError) and infeasible.min_frames is None
    alone = loss_and_grad(lat, post)
    assert outcome.loss == alone.loss and outcome.log_marginal == alone.log_marginal
    assert np.array_equal(outcome.grad, alone.grad)
