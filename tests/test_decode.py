import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphtransducer import (
    CTC_LIKE,
    MONO_RNNT,
    CountsLm,
    DecodeConfig,
    InvalidSpecError,
    ModelPosteriors,
    PosteriorTensor,
    TensorPosteriors,
    TopologySpec,
    ToyModel,
    beam_search,
    edit_distance,
    greedy_search,
    prune,
)
import graphtransducer.decode as gt_decode
from graphtransducer.decode import _log_add
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
    scores = [-1.0, -5.0, -0.5, -3.0, -2.0]
    assert [hyps[j] for j in prune(hyps, scores, 2, math.inf)] == [(3,), (1,)]


def test_prune_threshold_is_strict():
    hyps = [(1,), (2,), (3,)]
    theta2 = 2.0
    scores = [0.0, -theta2 - 1e-9, -theta2 + 1e-9]
    assert [hyps[j] for j in prune(hyps, scores, 10, theta2)] == [(1,), (3,)]
    boundary = [(1,), (2,)]
    assert [boundary[j] for j in prune(boundary, [0.0, -theta2], 10, theta2)] == [(1,), (2,)]


def test_prune_breaks_ties_lexicographically():
    hyps = [(2,), (1, 3), (1, 2)]
    scores = [-1.0, -1.0, -1.0]
    assert [hyps[j] for j in prune(hyps, scores, 2, math.inf)] == [(1, 2), (1, 3)]


def test_prune_of_no_candidates_keeps_none():
    assert prune([], [], 3, math.inf) == []
    assert prune((), (), 3, 1.0) == []


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
        dict(lm_weight=True),
        dict(insertion_bonus=False),
        dict(theta2=True),
        dict(theta1=False),
        dict(theta1="0.1"),
        dict(lm_weight="1"),
        dict(theta2=10**400),
        dict(lm_weight=10**400),
    ],
)
def test_config_invariants(kwargs):
    with pytest.raises(ValueError):
        DecodeConfig(**kwargs)


@pytest.mark.parametrize(
    "kwargs, message",
    [(dict(theta2=10**400), "overflow"), (dict(lm_weight=10**400), "overflow"),
     (dict(theta2=True), "not a bool")],
)
def test_config_names_the_fault_of_a_bad_number(kwargs, message):
    with pytest.raises(ValueError, match=message):
        DecodeConfig(**kwargs)


def test_config_stores_real_numbers_as_floats():
    cfg = DecodeConfig(theta1=np.float32(0.5), theta2=3, lm_weight=np.int64(1), insertion_bonus=2)
    values = (cfg.theta1, cfg.theta2, cfg.lm_weight, cfg.insertion_bonus)
    assert values == (0.5, 3.0, 1.0, 2.0) and {type(v) for v in values} == {float}


def test_config_accepts_numpy_integer_beam_size():
    # stored as an int, as TopologySpec stores its labels
    beam_size = DecodeConfig(beam_size=np.int64(4)).beam_size
    assert beam_size == 4 and type(beam_size) is int


def test_counts_lm_load_skips_blank_lines(tmp_path):
    plain, spaced = tmp_path / "plain.tsv", tmp_path / "spaced.tsv"
    plain.write_text("\t1\t3\n1\t2\t4\n", encoding="utf-8")
    spaced.write_text("\n\t1\t3\n  \n1\t2\t4\n\n", encoding="utf-8")
    a, b = CountsLm.load(plain, vocab_size=3), CountsLm.load(spaced, vocab_size=3)
    assert a.order == b.order == 2
    for ctx in ((), (1,), (2,)):
        assert a.extension_row(ctx) == b.extension_row(ctx)


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
        ({(0,): {1: 1}}, r"context \(0,\): label ids outside 1..3"),
        ({(-1,): {1: 1}}, r"context \(-1,\): label ids outside 1..3"),
        ({(2, 4): {1: 1}}, r"context \(2, 4\): label ids outside 1..3"),
    ],
)
def test_counts_lm_constructor_rejects_bad_labels_and_counts(counts, match):
    with pytest.raises(ValueError, match=match):
        CountsLm(counts, vocab_size=4)


@pytest.mark.parametrize("context", ["0", "-1", "4", "1 4"])
def test_counts_lm_load_rejects_context_ids_outside_the_labels(tmp_path, context):
    # such a context matches no prefix, yet it would raise the order and
    # with it every other extension score
    path = tmp_path / "counts.tsv"
    path.write_text(f"\t1\t3\n{context}\t2\t1\n", encoding="utf-8")
    want = tuple(int(tok) for tok in context.split())
    with pytest.raises(ValueError, match=re.escape(f"context {want}: label ids outside 1..3")):
        CountsLm.load(path, vocab_size=4)


@pytest.mark.parametrize(
    "counts, match",
    [
        ({(): {1.5: 3}}, "label 1.5 outside"),
        ({(): {True: 3}}, "label True outside"),
        ({(): {1: 2.5}}, "count must be positive, as an integer; got 2.5"),
        ({(1.0,): {1: 3}}, "label ids must be integers"),
    ],
)
def test_counts_lm_constructor_rejects_non_integers(counts, match):
    with pytest.raises(ValueError, match=match):
        CountsLm(counts, vocab_size=3)


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


def test_greedy_rejects_an_unknown_topology_as_the_spec_does():
    provider = TensorPosteriors(PosteriorTensor(np.zeros((2, 3, 3))))
    with pytest.raises(InvalidSpecError) as spec:
        TopologySpec("ctc", (1,), 3)
    with pytest.raises(InvalidSpecError) as info:
        greedy_search(provider, "ctc")
    assert str(info.value) == str(spec.value)


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


def model_case(seed):
    """A seeded toy model's posteriors, whose decoder state is the last
    label, with an order-3 LM."""
    rng = np.random.default_rng(seed)
    features = rng.normal(0.0, 3.0, (30, 5))
    history = [rng.integers(1, 6, 12).tolist() for _ in range(20)]
    lm = CountsLm(ngram_counts(history, 3), 6)
    return ModelPosteriors(ToyModel(5, 16, 6, seed=seed), features), lm


def tied_case(seed, frames=8, vocab=4):
    """Integer logits shared by every decoder state, so that many prefixes
    score exactly alike."""
    rng = np.random.default_rng(seed)
    row = rng.integers(-1, 2, (frames, 1, vocab)).astype(float)
    return TensorPosteriors(PosteriorTensor(np.tile(row, (1, frames + 1, 1))))


def bonus_case(seed):
    rng = np.random.default_rng(seed)
    logits = rng.normal(0.0, 1.0, (40, 12, 8))
    logits[np.arange(40), :, rng.integers(0, 8, 40)] += 3.0
    return TensorPosteriors(PosteriorTensor(logits))


# results of the search that keyed prefixes by tuple and called
# extension_score once per new candidate, with the scores from when the
# normalizer shifted every row's peak out; each test names its pin by that
# parent score
PINNED_MODEL = [
    (0, (3, 5, 4, 5, 1, 2, 5, 2, 3, 2, 5, 1, 5), -26.20040091741535),
    (1, (3, 4, 1, 5, 3, 5, 4, 3, 1, 3, 5, 1), -32.21814272339871),
]

# the same searches' scores since the normalizer takes no row peak for
# logits within its range, keyed by parent score: the prefixes are the
# same, and each score moved by at most PIN_DRIFT of its parent
PINNED_SCORES = {
    -26.20040091741535: -26.200400917415344,
    -32.21814272339871: -32.21814272339871,
    -3.69162451393126: -3.691624513931259,
    -4.199187384396565: -4.199187384396564,
    -20.802857522234543: -20.80285752223455,
}
# relative, about 4.5 float64 epsilons; the largest move was 3.4e-16
PIN_DRIFT = 1e-15


def assert_pinned(result, want, parent_score):
    prefix, score = result
    assert prefix == want and score == PINNED_SCORES[parent_score]
    assert abs(score - parent_score) <= PIN_DRIFT * abs(parent_score)


@pytest.mark.parametrize("seed, want, parent_score", PINNED_MODEL)
def test_fused_search_on_model_posteriors_is_pinned(seed, want, parent_score):
    provider, lm = model_case(seed)
    assert_pinned(beam_search(provider, FUSED, lm), want, parent_score)


# P cuts through equal scores, so which of the tied prefixes survive rests
# on the tie-break alone: breaking ties the other way changes both results
PINNED_TIES = [
    (0, 4, (1, 3, 2, 1), -3.69162451393126),
    (3, 5, (1, 3, 1, 2, 1), -4.199187384396565),
]


@pytest.mark.parametrize("seed, beam_size, want, parent_score", PINNED_TIES)
def test_search_with_ties_at_the_cut_is_pinned(seed, beam_size, want, parent_score):
    cfg = DecodeConfig(beam_size=beam_size, theta1=0.0)
    assert_pinned(beam_search(tied_case(seed), cfg), want, parent_score)


def test_search_without_lm_and_negative_bonus_is_pinned():
    cfg = DecodeConfig(beam_size=4, theta1=0.05, theta2=6.0, insertion_bonus=-0.7)
    want = (6, 1, 6, 5, 4, 5, 1, 7, 5, 7, 5, 3, 7, 4, 2, 7, 6, 5, 3, 6, 7, 1, 4, 6, 2, 1, 6, 7, 4,
            1, 6, 7, 6, 5, 3)
    assert_pinned(beam_search(bonus_case(0), cfg, None), want, -20.802857522234543)


def test_counts_lm_rows_are_its_extension_scores():
    lm = CountsLm({(): {1: 3, 2: 1}, (1,): {2: 4}, (1, 2): {3: 5, 1: 1}, (2, 3): {1: 2}}, 5)
    seen = [(), (1,), (1, 2), (2, 3), (4, 1, 2)]  # the last one conditions on (1, 2)
    unseen = [(3,), (2, 2), (3, 1), (4, 4, 4)]
    for context in seen + unseen:
        row = lm.extension_row(context)
        assert len(row) == 5 and row[0] == -math.inf
        # bit for bit, not approximately
        assert row[1:] == [lm.extension_score(context, k) for k in range(1, 5)]
        assert lm.extension_row(context) is row  # cached
    assert lm.extension_row((1, 2)) is lm.extension_row((4, 1, 2))
    assert lm.extension_row((3,)) is lm.extension_row((4, 4, 4))  # one row for all unseen


def test_search_rejects_lm_of_another_vocabulary():
    provider = TensorPosteriors(PosteriorTensor(np.zeros((2, 3, 8))))
    lm = CountsLm({(): {1: 2}}, vocab_size=3)
    with pytest.raises(ValueError, match="3 labels but the posteriors have 8"):
        beam_search(provider, DecodeConfig(beam_size=4, lm_weight=1.0), lm)


@pytest.mark.parametrize("vocab_size", [3.5, 3.0, True, "3", None])
def test_counts_lm_rejects_a_non_integer_vocab_size(vocab_size):
    with pytest.raises(ValueError, match="vocab_size must be an integer"):
        CountsLm({(): {1: 2}}, vocab_size)


def test_counts_lm_stores_a_numpy_vocab_size_as_int():
    lm = CountsLm({(): {1: 2}}, np.int64(4))
    assert type(lm.vocab_size) is int and lm.vocab_size == 4


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


def test_search_calls_prune_once_per_frame_by_position(monkeypatch):
    # the traced benchmark wraps decode.prune and counts len(scores) as
    # candidates and len(kept) as survivors, so the search must call it
    # through the module, once per frame, with four positional arguments
    calls = []
    real = gt_decode.prune

    def recording(*args, **kwargs):
        kept = real(*args, **kwargs)
        calls.append((args, kwargs, kept))
        return kept

    monkeypatch.setattr(gt_decode, "prune", recording)
    provider, lm = fused_case(0)
    assert beam_search(provider, FUSED, lm) == PINNED[0][2:]
    assert len(calls) == provider.num_frames
    for args, kwargs, kept in calls:
        assert len(args) == 4 and not kwargs
        hyps, scores, max_hyps, theta2 = args
        assert (max_hyps, theta2) == (FUSED.beam_size, FUSED.theta2)
        assert len(hyps) == len(scores) >= len(kept) >= 1
        assert all(0 <= j < len(scores) for j in kept)


# The search that keyed its ranked prefixes by tuple and scored every
# record after expansion, kept here as the reference the search must
# equal bit for bit.


def reference_prune(hyps, scores, max_hyps, theta2):
    ranked = sorted(hyps, key=lambda h: (-scores[h], h))
    kept = ranked[:max_hyps]
    if not kept:
        return kept
    floor = scores[kept[0]] - theta2
    return [h for h in kept if scores[h] >= floor]


class ReferenceFrameRows(dict):
    def __init__(self, frame, log_theta1):
        super().__init__()
        self._frame, self._floor = frame, log_theta1

    def __missing__(self, state):
        lp = self._frame[state].tolist()
        self[state] = found = (lp, [k for k in range(1, len(lp)) if lp[k] > self._floor])
        return found


def reference_beam_search(provider, cfg, lm=None):
    vocab = provider.vocab_size
    zeros = [0.0] * vocab
    extension_row = lm.extension_row if lm is not None else lambda context: zeros
    state_of = provider.state
    weight, bonus, max_hyps = cfg.lm_weight, cfg.insertion_bonus, cfg.beam_size
    log_theta1 = math.log(cfg.theta1) if cfg.theta1 > 0.0 else -math.inf
    bonus_at = [bonus * math.log(n) if n else 0.0 for n in range(provider.num_frames + 1)]
    prev = {0: [0.0, -math.inf, 0.0, 0.0, 0, (), None]}
    beam = {0: ()}
    for frame in provider.logprobs:
        rows = ReferenceFrameRows(frame, log_theta1)
        cur = {}
        for key, prefix in beam.items():
            p_b, p_nb, lm_score, total, n = prev[key][:5]
            last = prefix[-1] if n else 0
            lp, labels = rows[state_of(n, last)]
            own = lp[last] + p_nb if n else -math.inf
            cur[key] = [lp[0] + total, own, lm_score, None, n, prefix, None]
            base, lm_row = key * vocab, None
            for k in labels:
                child = base + k
                gain = lp[k] + (p_b if k == last else total)
                earlier = prev.get(child)
                if earlier is None:
                    if lm_row is None:
                        lm_row = extension_row(prefix)
                    cur[child] = [-math.inf, gain, lm_score + lm_row[k], None, n + 1, prefix, k]
                    continue
                rec = cur.get(child)
                if rec is not None:
                    rec[1] = _log_add(rec[1], gain)
                else:
                    lp_child = rows[state_of(n + 1, k)][0]
                    cur[child] = [lp_child[0] + earlier[3],
                                  _log_add(gain, lp_child[k] + earlier[1]),
                                  earlier[2], None, n + 1, prefix, k]
        scores = []
        for rec in cur.values():
            p_b = rec[0]
            rec[3] = mass = rec[1] if p_b == -math.inf else _log_add(p_b, rec[1])
            score = mass + weight * rec[2]
            if bonus != 0.0 and rec[4]:
                score += bonus_at[rec[4]]
            scores.append(score)
        cut = sorted(scores, reverse=True)[max_hyps - 1] if len(scores) > max_hyps else -math.inf
        ranked, keys = {}, {}
        for (key, rec), score in zip(cur.items(), scores):
            if score >= cut:
                if rec[6] is not None:
                    rec[5], rec[6] = rec[5] + (rec[6],), None
                ranked[rec[5]] = score
                keys[rec[5]] = key
        kept = reference_prune(ranked, ranked, max_hyps, cfg.theta2)
        beam = {keys[prefix]: prefix for prefix in sorted(kept, key=len, reverse=True)}
        prev = cur
    return kept[0], ranked[kept[0]]


@st.composite
def search_cases(draw):
    """Peaky normal logits, tied integer logits (so P cuts through equal
    scores) or a toy model's posteriors, with an LM of order 1-3 or none,
    and settings where theta1, theta2, P and the bonus each act or not."""
    kind = draw(st.sampled_from(["normal", "tied", "model"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    vocab, frames = draw(st.integers(2, 6)), draw(st.integers(1, 16))
    if kind == "model":
        features = rng.normal(0.0, 3.0, (frames, 3))
        provider = ModelPosteriors(ToyModel(3, 8, vocab, seed=int(rng.integers(100))), features)
    elif kind == "tied":
        row = rng.integers(-1, 2, (frames, 1, vocab)).astype(float)
        provider = TensorPosteriors(PosteriorTensor(np.tile(row, (1, frames + 1, 1))))
    else:
        logits = rng.normal(0.0, 1.0, (frames, frames + 1, vocab))
        logits[np.arange(frames), :, rng.integers(0, vocab, frames)] += 3.0
        provider = TensorPosteriors(PosteriorTensor(logits))
    order = draw(st.sampled_from([None, 1, 2, 3]))
    lm = None
    if order is not None:
        history = [rng.integers(1, vocab, 8).tolist() for _ in range(6)]
        lm = CountsLm(ngram_counts(history, order), vocab)
    cfg = DecodeConfig(
        beam_size=draw(st.integers(1, 6)),
        theta1=draw(st.sampled_from([0.0, 0.05, 0.2])),
        theta2=draw(st.sampled_from([1.0, 3.0, math.inf])),
        lm_weight=draw(st.sampled_from([0.0, 0.5, 2.0])),
        insertion_bonus=draw(st.sampled_from([0.0, 1.0, -0.7])),
    )
    return provider, cfg, lm


@settings(max_examples=300, derandomize=True, deadline=None)
@given(search_cases())
def test_search_equals_the_tuple_keyed_reference_bit_for_bit(case):
    provider, cfg, lm = case
    got, want = beam_search(provider, cfg, lm), reference_beam_search(provider, cfg, lm)
    assert got == want
    assert math.copysign(1.0, got[1]) == math.copysign(1.0, want[1])


# --- edit distance -------------------------------------------------------------


@pytest.mark.parametrize(
    "a,b,want",
    [((), (), 0), ((1, 2), (1, 2), 0), ((1, 2, 3), (1, 3), 1), ((1,), (2,), 1), ((), (1, 2), 2)],
)
def test_edit_distance(a, b, want):
    assert edit_distance(a, b) == want
