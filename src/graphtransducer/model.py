"""A miniature encoder/predictor/joiner with hand-written gradients.

The model exists to show the loss drives learning, not to be a serious
recognizer.  The predictor is order-1: decoder state i conditions only on
the last label of the length-i prefix, which keeps manual backprop small
while still exercising every decoder-state code path of the loss.
"""

from __future__ import annotations

import json
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .lattice import TopologySpec, _build_stack, _checked_labels, _is_int, _to_float, build_lattice
from .loss import InfeasibleLengthError, _stack_loss_and_grad, log_marginal
# unused here; kept as a module attribute because the train-toy benchmark's
# traced run (benchmarks/workloads.py) wraps ``model.loss_and_grad``
from .loss import loss_and_grad  # noqa: F401
from .posteriors import PosteriorTensor, read_tensor, write_tensor

PARAM_NAMES = ("enc_w", "embed", "join_w", "bias")


@dataclass
class Utterance:
    """Feature matrix (T, feat_dim) with its blank-free label sequence."""

    features: np.ndarray
    labels: tuple[int, ...]


class ToyModel:
    """Linear encoder + embedding predictor + tanh joiner.

    Logits for frame t and decoder state i are
    ``join_w @ tanh(enc_w @ x_t + embed[last label of the length-i prefix] + bias)``;
    state 0 uses ``embed[0]`` as a learned start-of-sequence embedding
    (label 0 is blank and never consumed, so the slot is free).
    """

    def __init__(self, feat_dim: int, hidden: int, vocab_size: int, lr: float = 0.1, seed: int = 0):
        # vocab_size counts the blank plus at least one label
        for name, value, low in (("feat_dim", feat_dim, 1), ("hidden", hidden, 1),
                                 ("vocab_size", vocab_size, 2)):
            if not _is_int(value) or value < low:
                raise ValueError(f"{name} must be an integer >= {low}; got {value!r}")
        rate = _to_float(lr)
        if rate is None or not np.isfinite(rate):
            raise ValueError(f"lr must be finite, as a real number that is not a bool; got {lr!r}")
        rng = np.random.default_rng(seed)
        self.feat_dim = int(feat_dim)
        self.hidden = int(hidden)
        self.vocab_size = int(vocab_size)
        self.lr = rate
        self.enc_w = rng.normal(0.0, 1.0 / np.sqrt(feat_dim), (hidden, feat_dim))
        self.embed = rng.normal(0.0, 0.1, (vocab_size, hidden))
        self.join_w = rng.normal(0.0, 1.0 / np.sqrt(hidden), (vocab_size, hidden))
        self.bias = np.zeros(hidden)

    def params(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in PARAM_NAMES}


def _state_embedding_indices(labels: tuple[int, ...]) -> np.ndarray:
    # state i consumed i labels; its conditioning label is labels[i - 1]
    return np.asarray((0,) + tuple(labels), dtype=np.int64)


def _activations(model: ToyModel, utt: Utterance):
    """The features as a float64 (T, feat_dim) array, after checking their
    shape, each decoder state's embedding row and the joiner input
    ``tanh(enc_w @ x_t + bias + embed[row])`` of shape (T, U + 1, hidden).
    The labels are checked first, as :class:`TopologySpec` checks them
    against the model's vocabulary, so a bad one raises
    :class:`~graphtransducer.lattice.InvalidSpecError` before it indexes
    ``embed``."""
    labels = _checked_labels(utt.labels, model.vocab_size)
    feats = np.asarray(utt.features, dtype=np.float64)
    if feats.ndim != 2 or feats.shape[1] != model.feat_dim:
        raise ValueError(
            f"features must have shape (T, {model.feat_dim}); got {feats.shape}"
        )
    pre = feats @ model.enc_w.T + model.bias
    idx = _state_embedding_indices(labels)
    return feats, idx, np.tanh(pre[:, None, :] + model.embed[idx][None, :, :])


def forward_logits(model: ToyModel, utt: Utterance) -> np.ndarray:
    """Logits of shape (T, U + 1, vocab) for the utterance's decoder states."""
    return _activations(model, utt)[2] @ model.join_w.T


def utterance_loss(model: ToyModel, utt: Utterance, kind: str) -> float:
    """Loss of one utterance under the given topology (no gradients)."""
    lat = build_lattice(TopologySpec(kind, utt.labels, model.vocab_size))
    post = PosteriorTensor(forward_logits(model, utt))
    return -log_marginal(lat, post)


def _backprop(model: ToyModel, feats: np.ndarray, idx: np.ndarray, act: np.ndarray,
              d_logits: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients of one utterance from its (T, I, K) logit gradient."""
    d_act = d_logits @ model.join_w  # (T, I, H)
    d_pre = d_act * (1.0 - act**2)
    grads = {
        "join_w": np.einsum("tik,tih->kh", d_logits, act),
        "enc_w": np.einsum("tih,td->hd", d_pre, feats),
        "bias": d_pre.sum(axis=(0, 1)),
        "embed": np.zeros_like(model.embed),
    }
    np.add.at(grads["embed"], idx, d_pre.sum(axis=0))
    return grads


def _packed_posteriors(tables: list[np.ndarray]) -> list[PosteriorTensor]:
    """The (T_b, S_b, V) logit tables side by side on the state axis of one
    zero-filled (max T_b, total S_b, V) buffer, left-aligned in time: table
    b takes state columns ``states[b]:states[b + 1]`` and frames ``:T_b``.
    One :class:`PosteriorTensor` normalizes the buffer; returns each
    table's member of it."""
    states = np.cumsum([0] + [table.shape[1] for table in tables])
    logits = np.zeros((max(len(table) for table in tables), states[-1], tables[0].shape[2]))
    for table, lo, hi in zip(tables, states, states[1:]):
        logits[:len(table), lo:hi] = table
    pack = PosteriorTensor(logits)
    return [pack.member(len(table), lo, hi - lo) for table, lo, hi in zip(tables, states, states[1:])]


def train_step(model: ToyModel, batch: list[Utterance], kind: str) -> float:
    """One full-batch gradient step; returns the batch mean loss.

    The model runs forward per utterance, and :func:`_packed_posteriors`
    lays the logits side by side on the state axis of one zero-filled
    buffer, left-aligned in time: utterance b takes state columns
    ``states[b]:states[b + 1]`` and frames ``:T_b``, so one normalizer pass
    serves the batch.  The batch's graph comes from one
    :func:`~graphtransducer.lattice._build_stack` pass over the label
    sequences, with no lattice or spec per utterance, and the loss core
    that :func:`batch_loss_and_grad` runs scores the members in that
    buffer and forms their gradients in one buffer of the same layout;
    each member's gradient is a view of it, so keeping one keeps the whole
    buffer alive.  The gradients are backpropagated and summed per
    utterance in batch order.  A label that is not an integer in
    1..vocab_size - 1 raises :class:`~graphtransducer.lattice.InvalidSpecError`.
    Utterances whose frame count cannot realize their labels under the
    topology are skipped with a warning rather than corrupting the step.
    """
    if not batch:
        raise ValueError("no feasible utterance in batch")
    acts = [_activations(model, utt) for utt in batch]
    posts = _packed_posteriors([act @ model.join_w.T for _, _, act in acts])
    # idx[1:] holds the utterance's checked labels as int64
    stack = _build_stack(kind, [idx[1:] for _, idx, _ in acts], [len(feats) for feats, _, _ in acts])
    results = _stack_loss_and_grad(stack, posts)
    losses = []
    total = {name: np.zeros_like(p) for name, p in model.params().items()}
    for i, (result, (feats, idx, act)) in enumerate(zip(results, acts)):
        if isinstance(result, InfeasibleLengthError):
            warnings.warn(f"skipping infeasible utterance {i}: {result}", stacklevel=2)
            continue
        losses.append(result.loss)
        # the grad is a strided view of the batch's buffer; matmul and einsum
        # run faster on a contiguous copy, and give the same bits
        grads = _backprop(model, feats, idx, act, np.ascontiguousarray(result.grad))
        for name in total:
            total[name] += grads[name]
    if not losses:
        raise ValueError("no feasible utterance in batch")
    scale = model.lr / len(losses)
    for name, param in model.params().items():
        param -= scale * total[name]
    return float(np.mean(losses))


def make_synthetic_task(seed: int, count: int, vocab: int, max_len: int) -> list[Utterance]:
    """Deterministic toy dataset: each label becomes 1-3 noisy one-hot
    frames preceded by a blank-ish separator frame (plus one trailing), so
    T >= 2U + 1 and every utterance is feasible for both topologies.

    Adjacent labels are always distinct.  With a repeat, the pair
    (label-k frame, last consumed label k) would have to emit k when a new
    run starts but blank when a run continues; the order-1 predictor cannot
    tell those apart, so the task would not be memorizable.
    """
    if vocab < 2:
        raise ValueError("vocab must be at least 2 (blank plus one label)")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    rng = np.random.default_rng(seed)
    eye = np.eye(vocab)
    data = []
    for _ in range(count):
        n_labels = int(rng.integers(1, max_len + 1))
        labels: list[int] = []
        for _ in range(n_labels):
            choices = [k for k in range(1, vocab) if not labels or k != labels[-1]]
            labels.append(choices[int(rng.integers(0, len(choices)))])
        rows = []
        for k in labels:
            rows.append(eye[0])
            for _ in range(int(rng.integers(1, 4))):
                rows.append(eye[k])
        rows.append(eye[0])
        feats = np.stack(rows) + rng.normal(0.0, 0.1, (len(rows), vocab))
        data.append(Utterance(feats, tuple(labels)))
    return data


def save_model(path: str | os.PathLike, model: ToyModel, step: int = 0) -> None:
    """Checkpoint: one JSON header line, then each parameter block in the
    binary tensor format, in the header's listed order."""
    header = {
        "format": "toy-model",
        "version": 1,
        "hyper": {
            "feat_dim": model.feat_dim,
            "hidden": model.hidden,
            "vocab_size": model.vocab_size,
            "lr": model.lr,
        },
        "step": int(step),
        "params": [
            {"name": name, "shape": list(p.shape)} for name, p in model.params().items()
        ],
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for p in model.params().values():
            write_tensor(fh, p)


def _check_header(header) -> None:
    """Raise ValueError unless the header has the fields save_model writes, with their types."""
    if not isinstance(header, dict) or (header.get("format"), header.get("version")) != ("toy-model", 1):
        raise ValueError("not a version-1 toy-model checkpoint")
    hyper, params = header.get("hyper"), header.get("params")
    if not isinstance(hyper, dict) or type(hyper.get("lr")) not in (int, float) or not all(
        type(hyper.get(key)) is int and hyper[key] >= 1 for key in ("feat_dim", "hidden", "vocab_size")
    ):
        raise ValueError(f"checkpoint header: hyper needs integer dims >= 1 and a number lr; got {hyper!r}")
    if type(header.get("step", 0)) is not int:
        raise ValueError(f"checkpoint header: step must be an integer; got {header['step']!r}")
    if not isinstance(params, list) or sorted(
        str(entry.get("name")) if isinstance(entry, dict) and "shape" in entry else "" for entry in params
    ) != sorted(PARAM_NAMES):
        raise ValueError(f"checkpoint header: params needs one {{name, shape}} per block {PARAM_NAMES}")


def load_model(path: str | os.PathLike) -> tuple[ToyModel, int]:
    with open(path, "rb") as fh:
        line = fh.readline()
        try:
            header = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"bad checkpoint header: {exc}") from exc
        _check_header(header)
        hyper = header["hyper"]
        model = ToyModel(
            hyper["feat_dim"], hyper["hidden"], hyper["vocab_size"], lr=hyper["lr"], seed=0
        )
        for entry in header["params"]:
            name = entry["name"]
            arr = read_tensor(fh)
            if list(arr.shape) != entry["shape"] or arr.shape != getattr(model, name).shape:
                raise ValueError(f"parameter {name!r} has shape {arr.shape}, expected {entry['shape']}")
            setattr(model, name, arr)
    return model, header.get("step", 0)
