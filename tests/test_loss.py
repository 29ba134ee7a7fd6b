import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    backward_vars,
    batch_loss_and_grad,
    brute_force_marginal,
    build_ctc_like_graph,
    build_lattice,
    build_monornnt_graph,
    deserialize,
    finite_diff_grad,
    forward_vars,
    log_marginal,
    loss_and_grad,
    marginal,
    reference_ctc,
    reference_monornnt,
    serialize,
    validate,
)
from graphtransducer.verify import FD_STEP, GRAD_TOL, ORACLE_TOL, random_case

NEG_INF = float("-inf")


def ctc_a(vocab=3):
    # nodes: 0 start, 1 blank0, 2 label-a, 3 blank1, 4 end
    return build_ctc_like_graph(TopologySpec(CTC_LIKE, (1,), vocab))


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
    lat = build_monornnt_graph(TopologySpec(MONO_RNNT, (1,), 3))
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
    lat = build_ctc_like_graph(TopologySpec(CTC_LIKE, (1, 1), 2))  # needs 3 frames
    post = rand_post(13, 2, 3, 2)
    with pytest.raises(InfeasibleLengthError) as info:
        loss_and_grad(lat, post)
    assert info.value.frames == 2 and info.value.min_frames == 3
    with pytest.raises(InfeasibleLengthError):
        log_marginal(lat, post)


def test_forward_vars_do_not_raise_on_infeasible_length():
    lat = build_ctc_like_graph(TopologySpec(CTC_LIKE, (1, 1), 2))
    post = rand_post(14, 2, 3, 2)
    alpha = forward_vars(lat, post)
    assert alpha[0, 0] == 0.0
    assert np.all(alpha[-1, lat.final.src] == NEG_INF)


def marginal_at_1(lat, post):
    tables = np.zeros((post.num_frames + 1, len(lat.nodes)))
    return marginal(lat, post, tables, tables, 1)


ENTRY_POINTS = [forward_vars, backward_vars, marginal_at_1, log_marginal, loss_and_grad]


def test_state_count_mismatch_is_an_error():
    lat = build_ctc_like_graph(TopologySpec(CTC_LIKE, (1, 2), 3))  # states up to 2
    post = rand_post(15, 3, 2, 3)
    for entry in ENTRY_POINTS:
        with pytest.raises(ValueError, match="state"):
            entry(lat, post)


def test_vocab_mismatch_is_an_error():
    lat = build_ctc_like_graph(TopologySpec(CTC_LIKE, (2,), 3))
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
        reference_monornnt(labels, post.logprobs), abs=1e-10
    )


def test_zero_weight_edge_gives_finite_loss_or_infeasible():
    # -inf is a legal zero-weight edge; cutting any one edge of the lattice
    # must never produce a NaN gradient or a finite wrong marginal
    text = serialize(build_monornnt_graph(TopologySpec(MONO_RNNT, (1, 2), 3)))
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


def log_softmax(logits):
    peak = logits.max(axis=-1, keepdims=True)
    return logits - (peak + np.log(np.exp(logits - peak).sum(axis=-1, keepdims=True)))


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
def loss_batches(draw):
    """1-6 (lattice, posteriors) pairs of both topologies with mixed T:
    repeated labels, -inf edge weights, a Lattice object used again by the
    next member, and members too short for their labels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch = []
    for _ in range(draw(st.integers(1, 6))):
        if batch and draw(st.booleans()):
            lat = batch[-1][0]
        else:
            vocab = draw(st.integers(2, 4))
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
@given(loss_batches())
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


def test_empty_batch_gives_no_results():
    assert batch_loss_and_grad([]) == []
