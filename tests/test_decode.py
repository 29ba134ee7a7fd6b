import math
from dataclasses import replace

import numpy as np
import pytest

from graphtransducer import (
    CTC_LIKE,
    MONO_RNNT,
    CountsLm,
    DecodeConfig,
    PosteriorTensor,
    TensorPosteriors,
    UniformLm,
    beam_search,
    edit_distance,
    greedy_search,
    prune,
)
from graphtransducer.verify import exhaustive_best_prefix


def tensor_from_probs(rows):
    """rows[t][i] is a probability row; log is already normalized."""
    return PosteriorTensor(np.log(np.asarray(rows, dtype=float)))


def tiled(rows, states):
    """One probability row per frame, shared by every decoder state."""
    arr = np.asarray(rows, dtype=float)[:, None, :]
    return tensor_from_probs(np.tile(arr, (1, states, 1)))


def ngram_counts(sequences, order):
    """{context: {label: count}} over every position of every sequence."""
    counts = {}
    for seq in sequences:
        for j, k in enumerate(seq):
            by_label = counts.setdefault(tuple(seq[max(0, j - order + 1): j]), {})
            by_label[k] = by_label.get(k, 0) + 1
    return counts


def no_pruning(total_prefixes):
    return DecodeConfig(beam_size=total_prefixes, theta1=0.0, theta2=math.inf)


# --- prune ------------------------------------------------------------------


def test_prune_keeps_top_p():
    hyps = [(1,), (2,), (3,), (4,), (5,)]
    scores = {(1,): -1.0, (2,): -5.0, (3,): -0.5, (4,): -3.0, (5,): -2.0}
    assert prune(hyps, scores, 2, math.inf) == [(3,), (1,)]


def test_prune_threshold_is_strict():
    hyps = [(1,), (2,), (3,)]
    theta2 = 2.0
    scores = {(1,): 0.0, (2,): -theta2 - 1e-9, (3,): -theta2 + 1e-9}
    assert prune(hyps, scores, 10, theta2) == [(1,), (3,)]
    boundary = {(1,): 0.0, (2,): -theta2}
    assert prune([(1,), (2,)], boundary, 10, theta2) == [(1,), (2,)]


def test_prune_breaks_ties_lexicographically():
    hyps = [(2,), (1, 3), (1, 2)]
    scores = {(2,): -1.0, (1, 3): -1.0, (1, 2): -1.0}
    assert prune(hyps, scores, 2, math.inf) == [(1, 2), (1, 3)]


# --- config and LM ------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(beam_size=0),
        dict(theta1=-0.1),
        dict(theta1=1.0),
        dict(theta2=0.0),
        dict(beam_size=2.5),
        dict(beam_size=True),
        dict(beam_size="10"),
        dict(lm_weight=math.nan),
        dict(lm_weight=math.inf),
        dict(insertion_bonus=math.inf),
        dict(insertion_bonus=-math.inf),
        dict(insertion_bonus=math.nan),
    ],
)
def test_config_invariants(kwargs):
    with pytest.raises(ValueError):
        DecodeConfig(**kwargs)


def test_config_accepts_numpy_integer_beam_size():
    assert DecodeConfig(beam_size=np.int64(4)).beam_size == 4


def test_uniform_lm_scores_zero():
    lm = UniformLm()
    assert lm.score(()) == 0.0 and lm.score((1, 2, 3)) == 0.0
    assert lm.extension_score((), 1) == 0.0 and lm.extension_score((1, 2), 3) == 0.0


def test_counts_lm_extension_probabilities_are_proper(tmp_path):
    path = tmp_path / "counts.tsv"
    path.write_text("\t1\t3\n\t2\t1\n1\t2\t4\n", encoding="utf-8")
    lm = CountsLm.load(path, vocab_size=3)
    assert lm.order == 2
    for ctx in ((), (1,), (2,)):  # seen, seen, unseen
        total = sum(math.exp(lm.extension_score(ctx, k)) for k in (1, 2))
        assert total == pytest.approx(1.0, abs=1e-12)
    # unseen context backs off to uniform over the two labels
    assert lm.extension_score((2,), 1) == pytest.approx(math.log(0.5), abs=1e-12)
    # add-one smoothing inside a seen context
    assert lm.extension_score((1,), 2) == pytest.approx(math.log(5 / 6), abs=1e-12)
    assert lm.score((1, 2)) == pytest.approx(math.log(4 / 6) + math.log(5 / 6), abs=1e-12)


def test_counts_lm_rejects_malformed_lines(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("1 2\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.tsv:1"):
        CountsLm.load(path, vocab_size=4)
    path.write_text("\tx\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=":1"):
        CountsLm.load(path, vocab_size=4)
    path.write_text("\t9\t3\n", encoding="utf-8")
    with pytest.raises(ValueError, match="label 9"):
        CountsLm.load(path, vocab_size=4)
    path.write_text("1\t2\t0\n", encoding="utf-8")
    with pytest.raises(ValueError, match="bad.tsv:1: count"):
        CountsLm.load(path, vocab_size=4)


@pytest.mark.parametrize(
    "counts, match",
    [
        ({(): {0: 2}}, "label 0 outside 1..3"),
        ({(1,): {4: 1}}, "label 4 outside 1..3"),
        ({(): {1: 0}}, "count must be positive"),
        ({(1, 2): {3: -2}}, "count must be positive"),
    ],
)
def test_counts_lm_constructor_rejects_bad_labels_and_counts(counts, match):
    with pytest.raises(ValueError, match=match):
        CountsLm(counts, vocab_size=4)


def test_counts_lm_score_is_the_running_sum_of_extension_scores():
    _, lm = fused_case(5)
    rng = np.random.default_rng(5)
    for length in range(12):
        prefix = tuple(int(k) for k in rng.integers(1, 12, length))
        running = 0.0
        for j, k in enumerate(prefix):
            running += lm.extension_score(prefix[:j], k)
        assert lm.score(prefix) == running  # bit for bit, not approximately


# --- greedy -------------------------------------------------------------------


def test_greedy_collapse_rules():
    # frame argmaxes: a, a, blank, b
    rows = [[0.1, 0.8, 0.1], [0.2, 0.7, 0.1], [0.8, 0.1, 0.1], [0.1, 0.2, 0.7]]
    provider = TensorPosteriors(tiled(rows, states=5))
    assert greedy_search(provider, CTC_LIKE) == (1, 2)
    assert greedy_search(provider, MONO_RNNT) == (1, 1, 2)


def test_greedy_all_blank_is_empty():
    rows = [[0.9, 0.05, 0.05]] * 4
    provider = TensorPosteriors(tiled(rows, states=5))
    assert greedy_search(provider, CTC_LIKE) == ()
    assert greedy_search(provider, MONO_RNNT) == ()


def test_greedy_matches_collapse_of_argmax_sequence():
    rng = np.random.default_rng(0)
    for _ in range(25):
        frames = int(rng.integers(1, 8))
        post = PosteriorTensor(np.tile(rng.normal(0, 1, (frames, 1, 4)), (1, frames + 1, 1)))
        argmaxes = post.logprobs[:, 0, :].argmax(axis=1)
        expected, previous = [], 0
        for k in argmaxes:
            if k != 0 and (k != previous or previous == 0):
                expected.append(int(k))
            previous = k
        assert greedy_search(TensorPosteriors(post), CTC_LIKE) == tuple(expected)


# --- beam search ---------------------------------------------------------------


def test_beam_single_frame_hand_trace():
    provider = TensorPosteriors(tensor_from_probs([[[0.2, 0.7, 0.1], [1 / 3, 1 / 3, 1 / 3]]]))
    best, score = beam_search(provider, DecodeConfig(beam_size=4, theta1=0.0))
    assert best == (1,)
    assert score == pytest.approx(math.log(0.7), abs=1e-12)


def test_beam_all_blank_returns_empty_prefix_score_zero():
    logits = np.zeros((3, 4, 3))
    logits[:, :, 0] = 100.0
    best, score = beam_search(TensorPosteriors(PosteriorTensor(logits)), DecodeConfig(beam_size=4))
    assert best == ()
    assert abs(score) < 1e-12


def test_beam_revival_restores_pruned_mass():
    # frame 1 favors blank so the beam of size 1 drops (1,); frame 2 must
    # revive it with its own continuation for the prefix to win.
    rows = [
        [[0.8, 0.2], [0.5, 0.5]],
        [[0.6, 0.4], [0.9, 0.1]],
    ]
    provider = TensorPosteriors(tensor_from_probs(rows))
    best, score = beam_search(provider, DecodeConfig(beam_size=1))
    # full mass of (1,): 0.8*0.4 (late emit) + 0.2*0.9 (early, then blank)
    # + 0.2*0.1 (early, then repeat) = 0.52 > 0.48 = mass of ()
    assert best == (1,)
    assert score == pytest.approx(math.log(0.52), abs=1e-12)
    # without the revived continuation the late emit alone (0.32) would lose


def test_beam_matches_exhaustive_oracle_unpruned():
    rng = np.random.default_rng(1)
    for _ in range(10):
        frames = int(rng.integers(1, 5))
        post = PosteriorTensor(rng.normal(0, 1, (frames, frames + 1, 3)))
        total = sum(2**n for n in range(frames + 1))
        best, score = beam_search(TensorPosteriors(post), no_pruning(total))
        want, want_score = exhaustive_best_prefix(post)
        assert best == want
        assert score == pytest.approx(want_score, abs=1e-9)


def test_fused_beam_matches_exhaustive_oracle_unpruned():
    # every prefix survives, so the search must return the argmax of
    # marginal + weight * LM + bonus * log(length) over all prefixes, with
    # the LM scored whole rather than carried one label at a time
    rng = np.random.default_rng(6)
    for order in (2, 3):
        for _ in range(6):
            frames = int(rng.integers(1, 5))
            post = PosteriorTensor(rng.normal(0, 1, (frames, frames + 1, 4)))
            history = [rng.integers(1, 4, 5).tolist() for _ in range(4)]
            lm = CountsLm(ngram_counts(history, order), vocab_size=4)
            assert lm.order == order
            weight, bonus = float(rng.uniform(0.2, 2.0)), float(rng.uniform(0.2, 2.0))
            total = sum(3**n for n in range(frames + 1))
            cfg = replace(no_pruning(total), lm_weight=weight, insertion_bonus=bonus)
            best, score = beam_search(TensorPosteriors(post), cfg, lm)
            want, want_score = exhaustive_best_prefix(post, lm, weight, bonus)
            assert best == want
            assert score == pytest.approx(want_score, abs=1e-9)


FUSED = DecodeConfig(beam_size=10, theta1=0.01, theta2=10.0, lm_weight=0.5, insertion_bonus=1.0)


def fused_case(seed, frames=60, states=16, vocab=12):
    """Peaky posteriors and an order-3 LM, a small copy of the benchmark's
    fused decode: the theta1 floor, the cap P and revival all act."""
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 1.0, (frames, states, vocab))
    logits[np.arange(frames), :, rng.integers(0, vocab, frames)] += 4.0
    history = [rng.integers(1, vocab, 20).tolist() for _ in range(30)]
    return TensorPosteriors(PosteriorTensor(logits)), CountsLm(ngram_counts(history, 3), vocab)


# results of the search that rescored every prefix's LM from scratch each frame
PINNED = [
    (0, 10.0, (2, 11, 2, 10, 9, 8, 3, 7, 9, 3, 4, 8, 5, 2, 7, 1, 11, 5, 8, 9, 8, 3, 9, 10, 3, 9,
               6, 9, 7, 11, 5, 7, 11, 10, 9, 7, 11, 5, 7, 9, 11, 1, 5, 1, 6, 10),
     -76.10130431689842),
    (1, 10.0, (8, 1, 2, 4, 10, 7, 4, 1, 9, 8, 6, 11, 8, 4, 10, 8, 1, 5, 11, 8, 2, 6, 11, 7, 10,
               9, 2, 5, 9, 3, 8, 3, 1, 8, 2, 10, 4, 9, 1, 3, 10, 6, 1, 8, 2, 5, 8, 4),
     -74.8909316463516),
    (2, 10.0, (5, 10, 6, 1, 7, 10, 6, 4, 7, 2, 2, 7, 11, 2, 3, 1, 6, 5, 3, 2, 5, 4, 2, 7, 11, 6,
               4, 3, 10, 7, 3, 10, 11, 5, 11, 2, 7, 3, 11, 8, 4, 6, 5, 10, 9, 11, 5, 1),
     -77.71541327168117),
    # a narrow theta2 so the score-width cut acts too
    (1, 3.0, (8, 1, 2, 4, 10, 7, 4, 1, 9, 8, 6, 11, 8, 4, 10, 8, 1, 5, 11, 8, 2, 6, 11, 7, 10,
              9, 2, 5, 9, 3, 8, 3, 1, 8, 2, 10, 4, 9, 1, 3, 10, 6, 1, 8, 2, 5, 8, 4),
     -74.8913983155548),
]


@pytest.mark.parametrize("seed, theta2, want, want_score", PINNED)
def test_fused_pruned_search_is_pinned(seed, theta2, want, want_score):
    provider, lm = fused_case(seed)
    assert beam_search(provider, replace(FUSED, theta2=theta2), lm) == (want, want_score)


def test_widening_the_beam_never_lowers_the_best_score():
    rng = np.random.default_rng(2)
    for _ in range(10):
        frames = int(rng.integers(2, 5))
        post = PosteriorTensor(rng.normal(0, 1, (frames, frames + 1, 3)))
        provider = TensorPosteriors(post)
        scores = [
            beam_search(provider, DecodeConfig(beam_size=p))[1] for p in (1, 2, 4, 8, 64)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(scores, scores[1:]))


def test_prefix_mass_never_exceeds_one_without_lm():
    rng = np.random.default_rng(3)
    for _ in range(10):
        frames = int(rng.integers(1, 5))
        post = PosteriorTensor(rng.normal(0, 1, (frames, frames + 1, 3)))
        _, score = beam_search(TensorPosteriors(post), DecodeConfig(beam_size=16))
        assert score <= 1e-9


def test_theta1_floor_limits_candidates():
    # with theta1 above the probability of label 2, only label 1 extends
    rows = [[0.3, 0.55, 0.15]]
    provider = TensorPosteriors(tiled(rows, states=2))
    best, _ = beam_search(provider, DecodeConfig(beam_size=8, theta1=0.2))
    assert best == (1,)


def test_uniform_lm_and_zero_weights_change_nothing():
    rng = np.random.default_rng(4)
    post = PosteriorTensor(rng.normal(0, 1, (3, 4, 3)))
    provider = TensorPosteriors(post)
    cfg = DecodeConfig(beam_size=8, lm_weight=0.0, insertion_bonus=0.0)
    counts = CountsLm({(): {1: 2, 2: 1}}, vocab_size=3)
    plain = beam_search(provider, cfg)
    with_lm_object = beam_search(provider, cfg, counts)
    assert plain == with_lm_object


def test_lm_weight_can_flip_the_ranking():
    rows = [[0.10, 0.45, 0.45]]
    provider = TensorPosteriors(tiled(rows, states=2))
    neutral, _ = beam_search(provider, DecodeConfig(beam_size=8))
    assert neutral == (1,)  # tie broken toward the smaller label
    lm = CountsLm({(): {1: 1, 2: 9}}, vocab_size=3)
    biased, _ = beam_search(provider, DecodeConfig(beam_size=8, lm_weight=1.0), lm)
    assert biased == (2,)


def test_insertion_bonus_favors_longer_prefixes():
    provider = TensorPosteriors(PosteriorTensor(np.zeros((2, 3, 3))))
    plain, _ = beam_search(provider, DecodeConfig(beam_size=32))
    assert plain == (1,)
    longer, _ = beam_search(provider, DecodeConfig(beam_size=32, insertion_bonus=3.0))
    assert longer == (1, 2)


def test_empty_prefix_takes_no_insertion_bonus():
    logits = np.zeros((2, 3, 2))
    logits[:, :, 0] = 100.0
    provider = TensorPosteriors(PosteriorTensor(logits))
    best, score = beam_search(provider, DecodeConfig(beam_size=4, insertion_bonus=2.0))
    assert best == ()
    assert math.isfinite(score)


# --- edit distance -------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,want",
    [((), (), 0), ((1, 2), (1, 2), 0), ((1, 2, 3), (1, 3), 1), ((1,), (2,), 1), ((), (1, 2), 2)],
)
def test_edit_distance(a, b, want):
    assert edit_distance(a, b) == want
