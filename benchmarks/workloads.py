"""The benchmark's workloads.

Each workload builds its inputs from a seed in ``__init__`` (the set-up the
``setup_s`` metric times) and splits one op into three steps: ``prepare``
makes the op's inputs, ``call`` makes the timed calls into the library, and
``check`` verifies the result.  Only ``call`` is timed.  The library is
looked up through this module's globals and ``graphtransducer.model`` /
``graphtransducer.decode``, which is where a traced run wraps it.
"""

from __future__ import annotations

import sys

import numpy as np

import graphtransducer.decode as gt_decode
import graphtransducer.model as gt_model
from graphtransducer import (
    CTC_LIKE,
    MONO_RNNT,
    TOPOLOGIES,
    CountsLm,
    DecodeConfig,
    PosteriorTensor,
    TensorPosteriors,
    ToyModel,
    TopologySpec,
    beam_search,
    build_lattice,
    edit_distance,
    loss_and_grad,
    make_synthetic_task,
    train_step,
)

import checks

F64 = 8  # bytes per float64


class TrainToy:
    name = "train-toy"
    # The acceptance suite's toy task, once per topology.  Many tasks are
    # trained side by side so that one seed's utterance lengths do not set
    # the run's latency quantiles.
    TASKS = 32
    UTTS, VOCAB, MAX_LEN, HIDDEN = 20, 6, 5, 32
    # At the CLI's lr 0.3 about 1% of random tasks diverge within 20 steps;
    # at the model's default 0.1 none did, and a step costs the same.
    LR = 0.1
    # Models restart from their initial weights every EPISODE steps, so
    # every run trains the same bounded schedule whatever its length.
    EPISODE = 10
    tail_percentile = 95

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        task_seeds = [int(s) for s in rng.integers(0, 2**31, self.TASKS)]
        self.tasks = [
            make_synthetic_task(s, self.UTTS, self.VOCAB, self.MAX_LEN) for s in task_seeds
        ]
        self.models = []
        for s in task_seeds:
            for kind in TOPOLOGIES:
                model = ToyModel(self.VOCAB, self.HIDDEN, self.VOCAB, lr=self.LR, seed=s)
                self.models.append((model, kind))
        self.initial = [{n: p.copy() for n, p in m.params().items()} for m, _ in self.models]
        self.steps = [0] * len(self.models)
        self.final_loss = [None] * len(self.models)
        self.episode_start = [None] * len(self.models)
        self.frames = [sum(u.features.shape[0] for u in task) for task in self.tasks]
        self.window = len(self.models)
        self.min_ops = self.window * self.EPISODE

    def prepare(self, i: int):
        return i % len(self.models)

    def call(self, j: int):
        model, kind = self.models[j]
        return train_step(model, self.tasks[j // 2], kind)

    def frames_of(self, j: int) -> int:
        return self.frames[j // 2]

    def check(self, j: int, loss: float) -> list[str]:
        problems = checks.check_step_loss(loss)
        if self.steps[j] == 0:
            self.episode_start[j] = loss
        self.steps[j] += 1
        if self.steps[j] == self.EPISODE:
            problems += checks.check_episode(self.episode_start[j], loss)
            if self.final_loss[j] is None:
                self.final_loss[j] = loss
            for name, param in self.models[j][0].params().items():
                param[...] = self.initial[j][name]
            self.steps[j] = 0
        return problems

    def report(self) -> list[tuple[str, float, str]]:
        done = [x for x in self.final_loss if x is not None]
        if len(done) < len(self.final_loss):
            return []
        return [("train.final_loss", float(np.mean(done)), f"nats (after {self.EPISODE} steps)")]

    def working_set_bytes(self) -> int:
        params = sum(p.nbytes for p in self.models[0][0].params().values())
        feats = max(sum(u.features.nbytes for u in task) for task in self.tasks)
        # logits, logprobs, grad and the tanh activations of the largest utterance
        biggest = max(
            u.features.shape[0] * (len(u.labels) + 1) * (3 * self.VOCAB + self.HIDDEN)
            for task in self.tasks for u in task
        )
        return params + feats + biggest * F64

    def lookups(self):
        return [
            (gt_model, "build_lattice", "lattice.build"),
            (gt_model, "PosteriorTensor", "posteriors.logsoftmax"),
            (gt_model, "loss_and_grad", "loss.loss_and_grad"),
            (sys.modules[__name__], "train_step", "model.train_step"),
        ]


class LossLong:
    name = "loss-long"
    VOCAB = 100
    # T spans 200..500 on a fixed grid, visited in a fixed order, so the
    # mix of lengths (and with it the latency quantiles and the allocation
    # pattern behind peak memory) is the same for every seed; U = T / 5.
    FRAMES = tuple(range(200, 501, 20))
    tail_percentile = 75

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.items = []
        for j, frames in enumerate(self.FRAMES):
            kind = MONO_RNNT if j % 2 == 0 else CTC_LIKE
            n_labels = frames // 5
            labels = tuple(int(k) for k in rng.integers(1, self.VOCAB, n_labels))
            base = rng.normal(0.0, 1.0, (frames, 1, self.VOCAB))
            # mono-rnnt: logits depend on the decoder state; ctc-like: one
            # distribution tied across states, so plain CTC is its reference
            if kind == MONO_RNNT:
                by_state = rng.normal(0.0, 1.0, (1, n_labels + 1, self.VOCAB))
            else:
                by_state = np.zeros((1, n_labels + 1, 1))
            self.items.append((kind, labels, base, by_state))
        self.window = len(self.items)
        self.min_ops = 1
        self.references: dict[int, tuple] = {}

    def prepare(self, i: int):
        j = i % len(self.items)
        _, _, base, by_state = self.items[j]
        return j, base + by_state

    def call(self, inputs):
        j, logits = inputs
        kind, labels, _, _ = self.items[j]
        post = PosteriorTensor(logits)
        lat = build_lattice(TopologySpec(kind, labels, self.VOCAB))
        return loss_and_grad(lat, post)

    def frames_of(self, inputs) -> int:
        return inputs[1].shape[0]

    def check(self, inputs, result) -> list[str]:
        j, logits = inputs
        if j not in self.references:
            kind, labels, _, _ = self.items[j]
            self.references[j] = checks.loss_reference(kind, labels, logits)
        return checks.check_loss(result.log_marginal, result.grad, *self.references[j])

    def report(self):
        return []

    def working_set_bytes(self) -> int:
        frames = max(self.FRAMES)
        states = frames // 5 + 1
        nodes = 2 * states + 1
        # logits, logprobs, grad, plus the forward and backward tables
        return (3 * frames * states * self.VOCAB + 2 * (frames + 1) * nodes) * F64

    def lookups(self):
        module = sys.modules[__name__]
        return [
            (module, "PosteriorTensor", "posteriors.logsoftmax"),
            (module, "build_lattice", "lattice.build"),
            (module, "loss_and_grad", "loss.loss_and_grad"),
        ]


class DecodeFused:
    name = "decode-fused"
    FRAMES, VOCAB, LABELS = 200, 30, 40
    POOL = 8
    LM_SEQUENCES = 200
    CONFIG = DecodeConfig(
        beam_size=10, theta1=0.01, theta2=10.0, lm_weight=0.5, insertion_bonus=1.0
    )
    # Posterior shape: every frame peaks on its aligned symbol, and a fixed
    # share of frames has one confusable competitor.
    NOISE, PEAK, CONFUSED, CONFUSER = 0.6, 5.0, 0.3, 4.0
    tail_percentile = 75

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        symbols = self.VOCAB - 1
        self.chain = rng.dirichlet(np.full(symbols, 0.3), size=symbols)
        self.refs = [self._sample(rng, self.LABELS) for _ in range(self.POOL)]
        history = [self._sample(rng, self.LABELS) for _ in range(self.LM_SEQUENCES)]
        self.lm = CountsLm(_ngram_counts(history, order=3), self.VOCAB)
        self.providers = [
            TensorPosteriors(PosteriorTensor(self._logits(rng, ref))) for ref in self.refs
        ]
        self.first: dict[int, tuple] = {}
        self.errors: dict[int, int] = {}
        self.min_ops = self.window = self.POOL

    def _sample(self, rng, length: int) -> tuple[int, ...]:
        seq = [int(rng.integers(1, self.VOCAB))]
        while len(seq) < length:
            seq.append(1 + int(rng.choice(self.VOCAB - 1, p=self.chain[seq[-1] - 1])))
        return tuple(seq)

    def _logits(self, rng, ref: tuple[int, ...]) -> np.ndarray:
        # Alignment: each label holds two frames; the remaining frames are
        # spread over the blank gaps, with at least one between repeats.
        gaps = np.zeros(len(ref) + 1, dtype=np.int64)
        gaps[1:-1] = [a == b for a, b in zip(ref, ref[1:])]
        spare = self.FRAMES - 2 * len(ref) - int(gaps.sum())
        gaps += rng.multinomial(spare, np.full(len(ref) + 1, 1.0 / (len(ref) + 1)))
        aligned = [0] * int(gaps[0])
        for k, gap in zip(ref, gaps[1:]):
            aligned += [k, k] + [0] * int(gap)
        frames = np.arange(self.FRAMES)
        logits = rng.normal(0.0, self.NOISE, (self.FRAMES, len(ref) + 1, self.VOCAB))
        logits[frames, :, aligned] += self.PEAK
        confused = rng.permutation(self.FRAMES)[: round(self.CONFUSED * self.FRAMES)]
        logits[confused, :, rng.integers(1, self.VOCAB, confused.size)] += self.CONFUSER
        return logits

    def prepare(self, i: int):
        return i % self.POOL

    def call(self, j: int):
        return beam_search(self.providers[j], self.CONFIG, self.lm)

    def frames_of(self, j: int) -> int:
        return self.FRAMES

    def check(self, j: int, result) -> list[str]:
        labels, score = result
        problems = checks.check_hypothesis(labels, score, self.VOCAB, self.FRAMES)
        if j not in self.first:
            self.first[j] = result
            self.errors[j] = edit_distance(labels, self.refs[j])
        elif result != self.first[j]:
            problems.append(f"utterance {j} decoded to {result} after {self.first[j]}")
        return problems

    def report(self):
        if len(self.errors) < self.POOL:
            return []
        rate = sum(self.errors.values()) / sum(len(r) for r in self.refs)
        return [("decode.label_error_rate", rate, f"errors/label (over {self.POOL} utterances)")]

    def working_set_bytes(self) -> int:
        # the posterior table; the LM's count tables are far smaller
        return self.FRAMES * (self.LABELS + 1) * self.VOCAB * F64

    def lookups(self):
        return [
            (sys.modules[__name__], "beam_search", "decode.beam_search"),
            (gt_decode, "prune", "decode.prune"),
            (self.lm, "score", "decode.lm"),
        ] + [(p, "log_posteriors", "decode.posteriors") for p in self.providers]


def _ngram_counts(sequences, order: int) -> dict[tuple[int, ...], dict[int, int]]:
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for seq in sequences:
        for j, k in enumerate(seq):
            ctx = tuple(seq[max(0, j - order + 1): j])
            by_label = counts.setdefault(ctx, {})
            by_label[k] = by_label.get(k, 0) + 1
    return counts


WORKLOADS = {w.name: w for w in (TrainToy, LossLong, DecodeFused)}
