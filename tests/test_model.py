import math
import re
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphtransducer.lattice as gt_lattice
import graphtransducer.model as gt_model
from graphtransducer import (
    CTC_LIKE,
    MONO_RNNT,
    TOPOLOGIES,
    InfeasibleLengthError,
    InvalidSpecError,
    Lattice,
    ModelPosteriors,
    PosteriorTensor,
    TopologySpec,
    ToyModel,
    Utterance,
    build_lattice,
    forward_logits,
    greedy_search,
    load_model,
    loss_and_grad,
    make_synthetic_task,
    save_model,
    train_step,
    utterance_loss,
)


def clone(model: ToyModel) -> ToyModel:
    twin = ToyModel(model.feat_dim, model.hidden, model.vocab_size, lr=model.lr, seed=0)
    for name, value in model.params().items():
        setattr(twin, name, value.copy())
    return twin


def test_logit_shapes():
    m = ToyModel(4, 8, 5, seed=0)
    utt = Utterance(np.zeros((7, 4)), (1, 3))
    assert forward_logits(m, utt).shape == (7, 3, 5)


def test_zero_weights_give_uniform_posteriors():
    m = ToyModel(4, 8, 5, seed=0)
    for p in m.params().values():
        p[...] = 0.0
    logits = forward_logits(m, Utterance(np.ones((3, 4)), (1,)))
    assert np.all(logits == 0.0)


def test_states_depend_only_on_their_last_label():
    m = ToyModel(4, 8, 5, seed=1)
    feats = np.random.default_rng(0).normal(0, 1, (6, 4))
    one = forward_logits(m, Utterance(feats, (1, 2)))
    two = forward_logits(m, Utterance(feats, (3, 2)))
    # state 2 conditions on the last label (2) in both; state 1 differs
    assert np.array_equal(one[:, 2, :], two[:, 2, :])
    assert not np.array_equal(one[:, 1, :], two[:, 1, :])


def test_feature_dim_mismatch_raises():
    m = ToyModel(4, 8, 5, seed=0)
    with pytest.raises(ValueError, match="features"):
        forward_logits(m, Utterance(np.zeros((3, 5)), (1,)))
    with pytest.raises(ValueError, match="features"):
        ModelPosteriors(m, np.zeros((3, 5)))


def test_model_posteriors_match_forward_logits():
    # ModelPosteriors reads one table whose state k conditions on label k
    # and state 0 on the start; the order-1 predictor makes that exact for
    # any prefix, checked at every frame for every last label, short and long
    m = ToyModel(4, 8, 5, seed=3)
    feats = np.random.default_rng(4).normal(0, 1, (6, 4))
    provider = ModelPosteriors(m, feats)
    prefixes = [()] + [(k,) for k in range(1, 5)] + [(1, 3, 4, 2, k) for k in range(1, 5)]
    for prefix in prefixes:
        full = PosteriorTensor(forward_logits(m, Utterance(feats, prefix))).logprobs
        for t in range(1, 7):
            np.testing.assert_allclose(
                provider.log_posteriors(prefix, t), full[t - 1, len(prefix)], rtol=0, atol=1e-12
            )


def test_model_posteriors_score_sequences_from_their_one_table():
    # a sequence's score gathers its states' rows from the table that the
    # search reads, in place of a model forward over the sequence itself
    m = ToyModel(4, 8, 5, seed=3)
    feats = np.random.default_rng(4).normal(0, 1, (6, 4))
    provider = ModelPosteriors(m, feats)
    for kind in (CTC_LIKE, MONO_RNNT):
        for labels in [(), (2,), (1, 3, 4), (4, 4)]:
            want = -utterance_loss(m, Utterance(feats, labels), kind)
            assert provider.sequence_score(labels, kind) == pytest.approx(want, rel=1e-12)
        # more labels than the 6 frames can emit
        assert provider.sequence_score((1, 2, 3, 4, 1, 2, 3), kind) == -math.inf


def test_synthetic_task_is_deterministic():
    a = make_synthetic_task(11, 10, 6, 5)
    b = make_synthetic_task(11, 10, 6, 5)
    assert len(a) == len(b) == 10
    for ua, ub in zip(a, b):
        assert ua.labels == ub.labels
        assert np.array_equal(ua.features, ub.features)


@pytest.mark.parametrize("vocab, max_len, message", [
    (1, 5, "vocab must be at least 2"),
    (6, 0, "max_len must be at least 1"),
    (3.0, 5, "vocab must be at least 2, as an integer; got 3.0"),
    (True, 5, "vocab must be at least 2, as an integer; got True"),
    (6, 2.5, "max_len must be at least 1, as an integer; got 2.5"),
    (6, -1, "max_len must be at least 1, as an integer; got -1"),
])
def test_synthetic_task_rejects_sizes_it_cannot_fill(vocab, max_len, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make_synthetic_task(0, 3, vocab, max_len)


@pytest.mark.parametrize("count", [0, -1, 2.5, True])
def test_synthetic_task_rejects_a_count_it_cannot_fill(count):
    # a count below 1 gave an empty task, and a float one numpy's TypeError
    with pytest.raises(ValueError, match=re.escape(f"count must be at least 1, as an integer; got {count!r}")):
        make_synthetic_task(0, count, 3, 2)


def test_synthetic_task_is_feasible_and_blank_free():
    for utt in make_synthetic_task(12, 20, 6, 5):
        assert all(k != 0 for k in utt.labels)
        assert all(a != b for a, b in zip(utt.labels, utt.labels[1:]))
        assert utt.features.shape[0] >= 2 * len(utt.labels) + 1


def test_zero_learning_rate_keeps_parameters_bitwise():
    data = make_synthetic_task(13, 3, 6, 4)
    m = ToyModel(6, 8, 6, lr=0.0, seed=2)
    before = {k: v.copy() for k, v in m.params().items()}
    train_step(m, data, CTC_LIKE)
    for name, value in m.params().items():
        assert np.array_equal(value, before[name])


# a zero dim would let save_model fail after writing the header line, and
# a float one would raise a TypeError from numpy; both are ValueErrors here
@pytest.mark.parametrize("dims, name", [
    ((6, 0, 6), "hidden"), ((0, 8, 6), "feat_dim"), ((2.5, 4, 3), "feat_dim"),
    ((True, 8, 6), "feat_dim"), ((6, True, 6), "hidden"), ((6, 8.0, 6), "hidden"),
    ((6, 8, 6.0), "vocab_size"), ((6, 8, "6"), "vocab_size"), ((6, 8, 1), "vocab_size"),
])
def test_non_integer_or_small_dims_are_rejected(dims, name):
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        ToyModel(*dims)


def test_numpy_integer_dims_are_stored_as_ints(tmp_path):
    m = ToyModel(np.int64(6), np.int32(8), np.int64(6))
    assert all(type(v) is int for v in (m.feat_dim, m.hidden, m.vocab_size))
    save_model(tmp_path / "m.ckpt", m)
    assert load_model(tmp_path / "m.ckpt")[0].hidden == 8


@pytest.mark.parametrize("lr", [math.nan, math.inf, True, "0.1", pytest.param(10**400, id="huge-int")])
def test_non_finite_learning_rate_is_rejected(lr):
    with pytest.raises(ValueError, match="lr must be finite"):
        ToyModel(6, 8, 6, lr=lr)


def test_single_utterance_memorization():
    data = make_synthetic_task(3, 1, 6, 5)
    m = ToyModel(6, 32, 6, lr=0.1, seed=1)
    losses = [train_step(m, data, CTC_LIKE) for _ in range(200)]
    assert losses[-1] <= 0.1 * losses[0]


def test_infeasible_utterance_is_skipped_with_warning():
    data = make_synthetic_task(14, 2, 6, 3)
    short = Utterance(np.zeros((1, 6)), (1, 2, 3))  # one frame cannot carry three labels
    # the batch's longest utterance, so it sets the padded frame count
    long = Utterance(np.zeros((30, 6)), (1, 2, 3, 4, 5) * 8)
    for batch, index in ((data + [short], 2), (data + [long], 2), ([short] + data, 0)):
        m = ToyModel(6, 8, 6, lr=0.1, seed=3)
        twin = clone(m)
        with pytest.warns(UserWarning, match=f"skipping infeasible utterance {index}:"):
            with_bad = train_step(m, batch, CTC_LIKE)
        without_bad = train_step(twin, data, CTC_LIKE)
        assert with_bad == without_bad
        for name in ("enc_w", "embed", "join_w", "bias"):
            assert np.array_equal(getattr(m, name), getattr(twin, name))


def test_batch_of_only_infeasible_utterances_raises():
    short = Utterance(np.zeros((1, 6)), (1, 2, 3))
    m = ToyModel(6, 8, 6, lr=0.1, seed=3)
    with pytest.warns(UserWarning):
        with pytest.raises(ValueError, match="no feasible"):
            train_step(m, [short], CTC_LIKE)


def test_an_empty_batch_raises():
    with pytest.raises(ValueError, match="no feasible utterance in batch"):
        train_step(ToyModel(6, 8, 6, lr=0.1, seed=3), [], CTC_LIKE)


@pytest.mark.parametrize("labels", [(6,), (9,), (-1,), (0,), (True,), (2.0,), (1, 2**70)])
def test_bad_labels_raise_the_spec_error_at_the_model_boundary(labels):
    # before the check, a label >= V raised IndexError from the embedding,
    # one >= 2**63 OverflowError, and -1 read the embedding's last row
    with pytest.raises(InvalidSpecError) as spec:
        TopologySpec(CTC_LIKE, labels, 6)
    m = ToyModel(6, 8, 6, seed=3)
    before = {name: p.copy() for name, p in m.params().items()}
    bad = Utterance(np.zeros((5, 6)), labels)
    calls = (
        lambda: train_step(m, make_synthetic_task(14, 2, 6, 3) + [bad], CTC_LIKE),
        lambda: forward_logits(m, bad),
        lambda: utterance_loss(m, bad, MONO_RNNT),
    )
    for call in calls:
        with pytest.raises(InvalidSpecError) as info:
            call()
        assert str(info.value) == str(spec.value)
    for name, p in m.params().items():
        assert np.array_equal(p, before[name])


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_an_infeasible_members_warning_matches_its_own_lattice(kind):
    # (2, 2) needs 3 frames in ctc-like, where a blank separates the repeat,
    # and 2 in mono-rnnt; (3, 3, 3) needs 5 and 3; (1, 2, 3) needs 5 and 3
    rng = np.random.default_rng(21)
    good = make_synthetic_task(21, 3, 6, 3)
    batch = [good[0], Utterance(rng.normal(size=(2, 6)), (2, 2)), good[1],
             Utterance(rng.normal(size=(1, 6)), (1, 2, 3)), Utterance(rng.normal(size=(2, 6)), (3, 3, 3)), good[2]]
    m = ToyModel(6, 8, 6, seed=5)
    want = []
    for i, utt in enumerate(batch):
        lat = build_lattice(TopologySpec(kind, utt.labels, 6))
        try:
            loss_and_grad(lat, PosteriorTensor(forward_logits(m, utt)))
        except InfeasibleLengthError as exc:
            want.append(f"skipping infeasible utterance {i}: {exc}")
    assert len(want) == (3 if kind == CTC_LIKE else 2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", UserWarning)
        train_step(m, batch, kind)
    assert [str(w.message) for w in caught] == want


def per_lattice_step(model, batch, kind):
    """train_step from one spec, one lattice and one tensor per utterance,
    each scored on its own by loss_and_grad."""
    losses = []
    total = {name: np.zeros_like(p) for name, p in model.params().items()}
    for i, utt in enumerate(batch):
        feats, idx, act = gt_model._activations(model, utt)
        lat = build_lattice(TopologySpec(kind, utt.labels, model.vocab_size))
        try:
            result = loss_and_grad(lat, PosteriorTensor(act @ model.join_w.T))
        except InfeasibleLengthError as exc:
            warnings.warn(f"skipping infeasible utterance {i}: {exc}", stacklevel=2)
            continue
        losses.append(result.loss)
        grads = gt_model._backprop(model, feats, idx, act, np.ascontiguousarray(result.grad))
        for name in total:
            total[name] += grads[name]
    if not losses:
        raise ValueError("no feasible utterance in batch")
    scale = model.lr / len(losses)
    for name, param in model.params().items():
        param -= scale * total[name]
    return float(np.mean(losses))


@st.composite
def training_tasks(draw):
    """A topology and a synthetic task with 1-4 random utterances put in:
    labels with adjacent repeats, and frame counts that are often too
    few for the labels."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    batch = make_synthetic_task(seed, draw(st.integers(1, 8)), 4, 4)
    for _ in range(draw(st.integers(1, 4))):
        labels = tuple(int(k) for k in rng.integers(1, 4, draw(st.integers(0, 5))))
        frames = draw(st.integers(1, len(labels) + 2))
        batch.insert(draw(st.integers(0, len(batch))), Utterance(rng.normal(size=(frames, 4)), labels))
    return draw(st.sampled_from(TOPOLOGIES)), seed, batch


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, derandomize=True, deadline=None)
@given(training_tasks())
def test_train_step_equals_the_per_lattice_step_bit_for_bit(task):
    kind, seed, batch = task
    model = ToyModel(4, 8, 4, lr=0.3, seed=seed % 1000)
    twin = clone(model)
    for _ in range(3):
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always", UserWarning)
            loss = train_step(model, batch, kind)
        with warnings.catch_warnings(record=True) as want:
            warnings.simplefilter("always", UserWarning)
            assert loss == per_lattice_step(twin, batch, kind)
        assert [str(w.message) for w in got] == [str(w.message) for w in want]
        for name, value in model.params().items():
            assert np.array_equal(value, getattr(twin, name))


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_a_training_step_makes_no_lattice_or_spec(kind, monkeypatch):
    made = Counter()

    def counted(name, original):
        def wrapper(*args, **kwargs):
            made[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for module in (gt_lattice, gt_model):
        monkeypatch.setattr(module, "build_lattice", counted("build_lattice", build_lattice))
    monkeypatch.setattr(Lattice, "_from_arrays", classmethod(counted("Lattice", Lattice._from_arrays.__func__)))
    monkeypatch.setattr(Lattice, "__post_init__", counted("Lattice", Lattice.__post_init__))
    monkeypatch.setattr(TopologySpec, "__post_init__", counted("TopologySpec", TopologySpec.__post_init__))
    data = make_synthetic_task(8, 20, 6, 5)
    m = ToyModel(6, 8, 6, seed=8)
    train_step(m, data, kind)
    assert made == Counter()
    # the guard sees the lattice and the spec of a per-utterance loss
    utterance_loss(m, data[0], kind)
    assert made == Counter(build_lattice=1, Lattice=1, TopologySpec=1)


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_joiner_gradient_matches_finite_differences(kind):
    data = make_synthetic_task(15, 1, 4, 2)
    m = ToyModel(4, 6, 4, lr=1.0, seed=4)
    # with lr 1 and one utterance, a train_step moves each parameter by
    # exactly its gradient, so this checks the batched loss and backprop
    stepped = clone(m)
    train_step(stepped, data[:1], kind)
    grads = {name: value - getattr(stepped, name) for name, value in m.params().items()}
    step = 1e-6
    for name in ("join_w", "enc_w", "bias", "embed"):
        param = getattr(m, name)
        fd = np.zeros_like(param)
        for idx in np.ndindex(param.shape):
            keep = param[idx]
            param[idx] = keep + step
            plus = utterance_loss(m, data[0], kind)
            param[idx] = keep - step
            minus = utterance_loss(m, data[0], kind)
            param[idx] = keep
            fd[idx] = (plus - minus) / (2 * step)
        scale = max(np.abs(grads[name]).max(), np.abs(fd).max(), 1e-8)
        assert np.abs(grads[name] - fd).max() / scale < 1e-4, name


def test_training_curve_is_smoothly_nonincreasing():
    data = make_synthetic_task(7, 20, 6, 5)
    m = ToyModel(6, 32, 6, lr=0.3, seed=0)
    losses = np.array([train_step(m, data, CTC_LIKE) for _ in range(200)])
    smoothed = np.convolve(losses, np.ones(10) / 10, mode="valid")
    assert np.all(np.diff(smoothed[50:]) <= 1e-9)


# losses of the per-utterance loss loop, which the batched loss reproduced
# bit for bit, from when the gradient's softmax was exp(h - lse); the
# softmax now comes from the normalizer's own pass, which rounds differently
PARENT_LOSSES = {
    CTC_LIKE: [
        9.735075841003399, 5.659921697483734, 4.239732467716932, 3.493651722356577,
        2.7839077395340723, 2.190763138277808, 1.701734994759993, 1.3177995597674967,
        1.0333735978166367, 0.8314247094939875, 0.6885533832734232, 0.585020013052904,
        0.5074411749537586, 0.44716481809449055, 0.3984481916452176, 0.3573021864022339,
        0.32097167806324645, 0.2879296504716383, 0.2579444211492266, 0.23152646344504882,
    ],
    MONO_RNNT: [
        12.500066014182, 5.543900212030435, 5.1256278731291856, 4.890584458497704,
        5.100560654704501, 5.539874138712893, 6.1312848947415635, 4.051679709239243,
        4.105949641293654, 3.2216638173492456, 3.208452423369045, 2.799429745012812,
        2.7913208205584614, 2.4653515834458424, 2.420218990832144, 2.1243617086900897,
        2.0295726057964862, 1.7792788363264784, 1.65825520808099, 1.4669545758389118,
    ],
}

# the same trajectory since the normalizer takes no row peak for logits
# within its range: lse = log(total) and the softmax exp(h) / total, with
# total = sum_k exp(h); before, both shifted out each row's peak
PINNED_LOSSES = {
    CTC_LIKE: [
        9.735075841003399, 5.659921697483732, 4.239732467716932, 3.493651722356577,
        2.7839077395340723, 2.190763138277808, 1.7017349947599925, 1.3177995597674967,
        1.0333735978166367, 0.8314247094939873, 0.6885533832734231, 0.5850200130529039,
        0.5074411749537586, 0.44716481809449055, 0.3984481916452178, 0.3573021864022336,
        0.32097167806324634, 0.2879296504716381, 0.2579444211492263, 0.23152646344504876,
    ],
    MONO_RNNT: [
        12.500066014182, 5.543900212030435, 5.1256278731291856, 4.890584458497704,
        5.100560654704501, 5.539874138712892, 6.131284894741566, 4.051679709239244,
        4.105949641293654, 3.2216638173492433, 3.2084524233690437, 2.7994297450128114,
        2.79132082055846, 2.465351583445841, 2.4202189908321428, 2.1243617086900906,
        2.0295726057964867, 1.7792788363264784, 1.65825520808099, 1.4669545758389115,
    ],
}


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_training_trajectory_is_pinned(kind):
    data = make_synthetic_task(7, 20, 6, 5)
    m = ToyModel(6, 32, 6, lr=0.3, seed=7)
    losses = [train_step(m, data, kind) for _ in range(20)]
    assert losses == PINNED_LOSSES[kind]
    # the softmax's rounding moved no step more than this from the old pins
    for got, parent in zip(losses, PARENT_LOSSES[kind]):
        assert abs(got - parent) <= 1e-13 * abs(parent)


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    m = ToyModel(6, 8, 6, lr=0.25, seed=5)
    path = tmp_path / "model.ckpt"
    save_model(path, m, step=42)
    back, step = load_model(path)
    assert step == 42
    assert back.lr == m.lr and back.hidden == m.hidden
    for name, value in m.params().items():
        assert np.array_equal(getattr(back, name), value)


def test_resume_matches_uninterrupted_run(tmp_path):
    data = make_synthetic_task(16, 5, 6, 4)
    straight = ToyModel(6, 8, 6, lr=0.2, seed=6)
    losses = [train_step(straight, data, CTC_LIKE) for _ in range(8)]

    restarted = ToyModel(6, 8, 6, lr=0.2, seed=6)
    for _ in range(5):
        train_step(restarted, data, CTC_LIKE)
    path = tmp_path / "mid.ckpt"
    save_model(path, restarted, step=5)
    resumed, _ = load_model(path)
    resumed_losses = [train_step(resumed, data, CTC_LIKE) for _ in range(3)]
    assert abs(resumed_losses[0] - losses[5]) < 1e-9
    assert resumed_losses == losses[5:]
    for name in ("enc_w", "embed", "join_w", "bias"):
        assert np.array_equal(getattr(resumed, name), getattr(straight, name))


def test_greedy_labels_on_trained_model():
    data = make_synthetic_task(17, 5, 6, 3)
    m = ToyModel(6, 32, 6, lr=0.3, seed=7)
    for _ in range(150):
        train_step(m, data, CTC_LIKE)
    hits = sum(
        greedy_search(ModelPosteriors(m, utt.features), CTC_LIKE) == utt.labels for utt in data
    )
    assert hits >= 4


def test_load_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"\x00\x01\x02 not a checkpoint\n")
    with pytest.raises(ValueError, match="header"):
        load_model(path)
