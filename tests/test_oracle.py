import re
from decimal import Decimal

import numpy as np
import pytest

from graphtransducer import (
    CTC_LIKE,
    MONO_RNNT,
    Edge,
    InfeasibleLengthError,
    InvalidSpecError,
    Lattice,
    Node,
    PosteriorTensor,
    SizeLimitError,
    TopologySpec,
    brute_force_marginal,
    build_lattice,
    decode,
    enumerate_paths,
    finite_diff_grad,
    log_marginal,
    loss_and_grad,
    posteriors,
    reference_ctc,
    reference_monornnt,
    verify,
)
from graphtransducer import oracle
from graphtransducer.oracle import decimal_log_marginal, decimal_softmax, log_softmax, ulp_error
from graphtransducer.verify import random_case


def count_ctc_paths(labels, frames):
    """Independent path count from the expanded-sequence DP table."""
    ext = [0]
    for k in labels:
        ext += [k, 0]
    n = len(ext)
    counts = [0] * n
    counts[0] = 1
    if n > 1:
        counts[1] = 1
    for _ in range(1, frames):
        nxt = [0] * n
        for s in range(n):
            nxt[s] = counts[s]
            if s >= 1:
                nxt[s] += counts[s - 1]
            if s >= 2 and ext[s] != 0 and ext[s] != ext[s - 2]:
                nxt[s] += counts[s - 2]
        counts = nxt
    return counts[-1] + (counts[-2] if n > 1 else 0)


def test_ctc_a_two_frames_has_three_paths():
    lat = build_lattice(TopologySpec(CTC_LIKE, (1,), 3))
    assert len(enumerate_paths(lat, 2)) == 3


def test_mono_a_two_frames_has_two_paths():
    lat = build_lattice(TopologySpec(MONO_RNNT, (1,), 3))
    assert len(enumerate_paths(lat, 2)) == 2


def test_too_few_frames_gives_no_paths():
    lat = build_lattice(TopologySpec(CTC_LIKE, (1, 2), 3))
    assert enumerate_paths(lat, 1) == []


def test_paths_have_exact_length_and_no_duplicates():
    lat = build_lattice(TopologySpec(CTC_LIKE, (1, 2), 3))
    paths = enumerate_paths(lat, 5)
    assert all(len(p.nodes) == 7 for p in paths)
    assert len({p.nodes for p in paths}) == len(paths)


@pytest.mark.parametrize("labels,frames", [((1,), 4), ((1, 2), 5), ((1, 1), 6), ((), 3)])
def test_path_count_matches_expanded_dp(labels, frames):
    lat = build_lattice(TopologySpec(CTC_LIKE, labels, 3))
    assert len(enumerate_paths(lat, frames)) == count_ctc_paths(labels, frames)


def test_size_guards_refuse():
    small = build_lattice(TopologySpec(CTC_LIKE, (1,), 2))
    with pytest.raises(SizeLimitError):
        enumerate_paths(small, 9)
    big = build_lattice(TopologySpec(CTC_LIKE, tuple([1, 2] * 4), 3))  # 19 nodes
    with pytest.raises(SizeLimitError):
        enumerate_paths(big, 4)


def test_uniform_posterior_marginal_is_path_count_over_k_squared():
    vocab = 4
    lat = build_lattice(TopologySpec(CTC_LIKE, (1,), vocab))
    post = PosteriorTensor(np.zeros((2, 2, vocab)))
    assert brute_force_marginal(lat, post) == pytest.approx(np.log(3 / vocab**2), abs=1e-12)


def test_single_path_brute_force_is_the_path_score():
    lat = build_lattice(TopologySpec(MONO_RNNT, (1,), 3))
    post = PosteriorTensor(np.random.default_rng(0).normal(0, 1, (1, 2, 3)))
    assert brute_force_marginal(lat, post) == pytest.approx(post.logprobs[0, 0, 1], abs=1e-12)


def test_brute_force_raises_on_empty_path_set():
    lat = build_lattice(TopologySpec(CTC_LIKE, (1, 1), 2))
    post = PosteriorTensor(np.zeros((2, 3, 2)))
    with pytest.raises(InfeasibleLengthError):
        brute_force_marginal(lat, post)


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_brute_force_agrees_with_dp(kind):
    rng = np.random.default_rng(1)
    for _ in range(50):
        lat, post, _ = random_case(rng, kind, 5, 3, 4)
        assert brute_force_marginal(lat, post) == pytest.approx(
            log_marginal(lat, post), abs=1e-10
        )


def test_marginal_is_invariant_to_path_order():
    rng = np.random.default_rng(2)
    lat, post, _ = random_case(rng, CTC_LIKE, 5, 3, 4)
    lp = post.logprobs
    edge_info = {
        (e.src, e.dst): (e.state, lat.nodes[e.dst].label)
        for e in lat.edges
        if lat.nodes[e.dst].emitting
    }
    scores = []
    for p in enumerate_paths(lat, post.num_frames):
        total = p.log_weight
        for t, (a, b) in enumerate(zip(p.nodes[:-2], p.nodes[1:-1])):
            state, label = edge_info[(a, b)]
            total += lp[t, state, label]
        scores.append(total)
    scores = np.array(scores)
    reference = brute_force_marginal(lat, post)
    for order in (slice(None), slice(None, None, -1)):
        assert np.logaddexp.reduce(scores[order]) == pytest.approx(reference, abs=1e-12)
    shuffled = scores[np.random.default_rng(3).permutation(len(scores))]
    assert np.logaddexp.reduce(shuffled) == pytest.approx(reference, abs=1e-12)


def test_finite_diff_matches_analytic():
    rng = np.random.default_rng(3)
    for kind in (CTC_LIKE, MONO_RNNT):
        for _ in range(10):
            lat, post, _ = random_case(rng, kind, 4, 2, 3)
            analytic = loss_and_grad(lat, post).grad
            fd = finite_diff_grad(lat, post, step=1e-5)
            scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
            assert np.abs(analytic - fd).max() / scale < 1e-6


def test_finite_diff_rows_sum_to_zero_on_flat_logits():
    lat = build_lattice(TopologySpec(CTC_LIKE, (1,), 3))
    post = PosteriorTensor(np.zeros((2, 2, 3)))
    fd = finite_diff_grad(lat, post, step=1e-5)
    assert np.abs(fd.sum(axis=2)).max() < 1e-9


def test_finite_diff_is_exactly_zero_for_unused_states():
    lat = build_lattice(TopologySpec(CTC_LIKE, (1,), 3))
    post = PosteriorTensor(np.random.default_rng(4).normal(0, 1, (2, 4, 3)))
    fd = finite_diff_grad(lat, post, step=1e-5)
    assert np.all(fd[:, 2:, :] == 0.0)


def test_finite_diff_rejects_bad_step():
    lat = build_lattice(TopologySpec(CTC_LIKE, (1,), 3))
    post = PosteriorTensor(np.zeros((2, 2, 3)))
    with pytest.raises(ValueError, match="positive"):
        finite_diff_grad(lat, post, step=0.0)


def test_reference_ctc_single_alignment():
    lp = PosteriorTensor(np.random.default_rng(5).normal(0, 1, (1, 1, 3))).logprobs[:, 0, :]
    assert reference_ctc((1,), lp) == pytest.approx(-lp[0, 1], abs=1e-12)


def test_reference_ctc_empty_labels_is_all_blank():
    lp = PosteriorTensor(np.random.default_rng(6).normal(0, 1, (4, 1, 3))).logprobs[:, 0, :]
    assert reference_ctc((), lp) == pytest.approx(-lp[:, 0].sum(), abs=1e-12)


def test_oracle_raises_infeasible_on_unreachable_end_node():
    cut = Lattice((Node(0, "start"), Node(1, 0), Node(2, "end")), (Edge(0, 1, 0.0, 0),), 1, 2)
    post = PosteriorTensor(np.zeros((2, 1, 2)))
    for call in (brute_force_marginal, finite_diff_grad):
        with pytest.raises(InfeasibleLengthError) as info:
            call(cut, post)
        assert (info.value.frames, info.value.min_frames) == (2, None)


def test_reference_ctc_infeasible_raises():
    lp = np.log(np.full((2, 2), 0.5))
    with pytest.raises(InfeasibleLengthError):
        reference_ctc((1, 1), lp)


def test_reference_monornnt_infeasible_raises():
    lp = PosteriorTensor(np.zeros((1, 3, 3))).logprobs
    with pytest.raises(InfeasibleLengthError):
        reference_monornnt((1, 2), lp)


def test_reference_monornnt_rejects_a_tensor_with_too_few_states():
    with pytest.raises(ValueError, match="need 3 decoder states, tensor has 2"):
        reference_monornnt((1, 2), log_softmax(np.zeros((4, 2, 3))))


def test_check_gradients_rejects_an_unknown_mutation():
    with pytest.raises(ValueError, match="unknown mutation 'bogus'"):
        verify.check_gradients(seed=0, cases=1, mutation="bogus")


def test_beam_exactness_fails_on_a_wrong_search(monkeypatch):
    # one label more than the search found is never the exhaustive best
    search = decode.beam_search

    def wrong(provider, cfg):
        prefix, score = search(provider, cfg)
        return prefix + (1,), score

    monkeypatch.setattr(decode, "beam_search", wrong)
    result = verify.check_beam_exactness(seed=0, cases=5)
    assert not result.passed
    assert result.text.startswith("beam-exactness: FAIL cases=5 mismatches=5 first_mismatch=0 ")


def test_ctc_reduction_on_tied_states():
    rng = np.random.default_rng(7)
    for _ in range(10):
        lat, post, labels = random_case(rng, CTC_LIKE, 5, 3, 4)
        tied = PosteriorTensor(np.tile(post.logits[:, :1, :], (1, post.num_states, 1)))
        got = -log_marginal(lat, tied)
        want = reference_ctc(labels, log_softmax(tied.logits[:, 0, :]))
        assert got == pytest.approx(want, abs=1e-10)


def test_monornnt_reduction():
    rng = np.random.default_rng(8)
    for _ in range(10):
        lat, post, labels = random_case(rng, MONO_RNNT, 5, 3, 4)
        got = -log_marginal(lat, post)
        want = reference_monornnt(labels, log_softmax(post.logits))
        assert got == pytest.approx(want, abs=1e-10)


def test_oracle_checks_catch_a_wrong_production_normalizer(monkeypatch):
    # a constant added to every log normalizer, in range and past it,
    # shifts each production log marginal by -0.25 T; an oracle that read
    # post.logprobs would shift too.  Every case runs once as drawn, inside
    # the range, and once moved past it, which leaves each softmax as it is
    draw = verify.random_case
    for offset in (0.0, 2 * posteriors._UNSHIFTED_RANGE):
        def moved_case(*args, offset=offset):
            lat, post, labels = draw(*args)
            moved = PosteriorTensor(post.logits + offset)
            assert moved._in_range == (offset == 0.0)
            return lat, moved, labels

        def checks():
            match, _ = verify.check_marginal_oracle(seed=0, cases=20)
            return [match, verify.check_reduction(CTC_LIKE, seed=0, cases=10),
                    verify.check_reduction(MONO_RNNT, seed=0, cases=10)]

        monkeypatch.setattr(verify, "random_case", moved_case)
        assert all(result.passed for result in checks())
        with monkeypatch.context() as fault:
            for name in ("_logsumexp", "_unshifted_logsumexp"):
                exact = getattr(posteriors, name)
                fault.setattr(posteriors, name, lambda x, *outs, exact=exact: exact(x, *outs) + 0.25)
            for result in checks():
                assert not result.passed
                assert result.text.startswith(f"{result.name}: FAIL ")


def test_random_case_rejects_an_unknown_topology_as_the_spec_does():
    with pytest.raises(InvalidSpecError) as spec:
        TopologySpec("rnnt", (1,), 3)
    with pytest.raises(InvalidSpecError) as info:
        random_case(np.random.default_rng(0), "rnnt", 4, 2, 3)
    assert str(info.value) == str(spec.value)
    # with no case to draw, check_reduction checks the kind itself
    with pytest.raises(InvalidSpecError) as info:
        verify.check_reduction("rnnt", seed=0, cases=0)
    assert str(info.value) == str(spec.value)


@pytest.mark.parametrize("sizes, message", [
    ((4, -1, 3), "max_u must be an integer >= 0; got -1"),
    ((4, 1.5, 3), "max_u must be an integer >= 0; got 1.5"),
    ((4, True, 3), "max_u must be an integer >= 0; got True"),
    ((-1, 2, 3), "max_t must be an integer >= 1; got -1"),
    ((1.5, 2, 3), "max_t must be an integer >= 1; got 1.5"),
    ((True, 2, 3), "max_t must be an integer >= 1; got True"),
    ((0, 2, 3), "max_t must be an integer >= 1; got 0"),
    ((4, 2, 1), "vocab must be at least 2"),
    ((4, 2, 3.0), "vocab must be at least 2 (blank plus one label), as an integer; got 3.0"),
    ((4, 2, True), "vocab must be at least 2 (blank plus one label), as an integer; got True"),
])
def test_random_case_rejects_sizes_it_cannot_sample(sizes, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        random_case(np.random.default_rng(0), CTC_LIKE, *sizes)


def test_random_case_raises_when_its_draws_run_out():
    # with one frame only the empty sequence fits, and 1000 draws of 0..1000
    # labels can all miss it; the error names the last draw's shortest path
    with pytest.raises(InfeasibleLengthError) as info:
        random_case(np.random.default_rng(6), CTC_LIKE, 1, 1000, 3)
    assert (info.value.frames, info.value.min_frames) == (1, 1291)


def test_oracle_logsumexp_of_all_neg_inf_is_neg_inf():
    assert oracle._logsumexp(np.full(3, -np.inf)) == -np.inf


def test_decimal_softmax_rows_sum_to_one_at_its_precision():
    rows = np.array([[0.0, 0.0, 0.0, 0.0], [1.5, -2.0, 30.0, 0.25]])
    probs = decimal_softmax(rows)
    assert probs[0] == [Decimal("0.25")] * 4
    for row in probs:
        assert abs(sum(row) - 1) < Decimal("1e-38")
    # 1 / 3 is no float; its nearest float is within half an ulp
    third = decimal_softmax(np.zeros((1, 3)))
    assert ulp_error(np.full((1, 3), 1.0 / 3.0), third).max() <= 0.5
    assert ulp_error(np.full((1, 3), np.nextafter(1.0 / 3.0, 1.0)), third).min() > 0.5
    with pytest.raises(ValueError, match="2-D"):
        decimal_softmax(np.zeros(3))


def test_decimal_log_marginal_equals_path_enumeration():
    rng = np.random.default_rng(10)
    for i in range(12):
        lat, post, _ = random_case(rng, (CTC_LIKE, MONO_RNNT)[i % 2], 5, 3, 4)
        exact = decimal_log_marginal(lat, post.logits)
        assert isinstance(exact, Decimal)
        assert float(exact) == pytest.approx(brute_force_marginal(lat, post), rel=1e-14, abs=1e-14)
    # too few frames for any alignment
    lat = build_lattice(TopologySpec(CTC_LIKE, (1, 1), 3))
    assert decimal_log_marginal(lat, np.zeros((2, 3, 3))) == Decimal("-Infinity")
    with pytest.raises(ValueError, match="3-D"):
        decimal_log_marginal(lat, np.zeros((2, 3)))


# float64 epsilons of relative error that log_marginal keeps to against the
# decimal reference on decimal_cases(), both with and without the row-peak
# shift, whose cases measured at most 2.5 and 9.9.  Past the range each
# score h - lse rounds at |h| near 660, where an ulp is 1.1e-13, so the
# shifted case gets the larger bound
LOG_MARGINAL_EPS = {True: 4.0, False: 16.0}


def decimal_cases():
    """Both topologies at T 20 to 40 and logit scales 1 and 30, inside the
    normalizer's unshifted range, then one tensor moved past the range,
    which takes the shifted pass."""
    rng = np.random.default_rng(26)
    for kind in (CTC_LIKE, MONO_RNNT):
        for scale in (1.0, 30.0):
            n_labels = int(rng.integers(3, 8))
            labels = tuple(int(k) for k in rng.integers(1, 6, n_labels))
            lat = build_lattice(TopologySpec(kind, labels, 6))
            yield lat, rng.normal(0.0, scale, (int(rng.integers(20, 41)), n_labels + 1, 6))
    yield lat, rng.normal(0.0, 1.0, (30, n_labels + 1, 6)) - 1.1 * posteriors._UNSHIFTED_RANGE


def test_log_marginal_is_within_a_few_eps_of_the_decimal_reference():
    eps = Decimal(float(np.finfo(np.float64).eps))
    paths = []
    for lat, logits in decimal_cases():
        post = PosteriorTensor(logits)
        paths.append(post._in_range)
        exact = decimal_log_marginal(lat, logits)
        error = abs(Decimal(log_marginal(lat, post)) - exact) / abs(exact)
        assert error <= Decimal(LOG_MARGINAL_EPS[post._in_range]) * eps
    assert paths == [True] * 4 + [False]
