"""Hash what the package computes over a fixed seeded corpus, one SHA-256
per group, to show that a change leaves every result bit-identical:

    python3 tools/equivalence.py

prints one ``group sha256`` line per group:

- ``loss_and_grad``: loss, log marginal, gradient and ``lse`` of
  ``verify.random_case`` inputs of both topologies;
- ``loss_and_grad_long``: the same of inputs with T 200-500, U = T/5 and
  V = 100, as the benchmark's loss-long workload has them;
- ``batch_loss_and_grad``: batches of 1-6 members that mix vocabulary
  sizes and hold infeasible members (their frame counts and
  ``min_frames``);
- ``forward_vars``, ``backward_vars`` and ``marginal`` (at t = 1 and T) of
  the random cases and the long inputs;
- ``train_step``: the losses of 10-step trajectories per topology, and
  the final parameters;
- ``beam_search`` and ``beam_search_lm``: best prefix and score without an
  LM and with an order-3 ``CountsLm``.

It takes no options and uses only the package's public names, so a copy
of this file in another checkout's ``tools/`` hashes that checkout's
package: two checkouts compute the same results exactly when they print
the same lines.  The corpus runs in a few seconds.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from graphtransducer import (  # noqa: E402
    TOPOLOGIES,
    CountsLm,
    DecodeConfig,
    InfeasibleLengthError,
    PosteriorTensor,
    TensorPosteriors,
    TopologySpec,
    ToyModel,
    backward_vars,
    batch_loss_and_grad,
    beam_search,
    build_lattice,
    forward_vars,
    loss_and_grad,
    make_synthetic_task,
    marginal,
    train_step,
)
from graphtransducer.verify import random_case  # noqa: E402


def digest(values) -> str:
    """SHA-256 over each value's dtype, shape and bytes, in order; every
    value must convert to a numeric numpy array."""
    sha = hashlib.sha256()
    for value in values:
        array = np.ascontiguousarray(value)
        if array.dtype == object:
            raise TypeError(f"cannot hash a value of type {type(value).__name__}")
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(array.tobytes())
    return sha.hexdigest()


def _random_cases():
    rng = np.random.default_rng(0)
    for i in range(40):
        yield random_case(rng, TOPOLOGIES[i % 2], 8, 4, 5)[:2]


def _long_cases():
    # one at a time: the largest tensor takes 40 MB
    rng = np.random.default_rng(1)
    for i, frames in enumerate((200, 350, 500)):
        for kind in TOPOLOGIES:
            labels = tuple(int(k) for k in rng.integers(1, 100, frames // 5))
            lat = build_lattice(TopologySpec(kind, labels, 100))
            yield lat, PosteriorTensor(rng.normal(0.0, 2.0 + i, (frames, lat.num_states, 100)))


def _losses(cases):
    for lat, post in cases:
        result = loss_and_grad(lat, post)
        yield from (result.loss, result.log_marginal, result.grad, post.lse)


def _batches():
    rng = np.random.default_rng(2)
    for _ in range(30):
        batch = []
        for _ in range(int(rng.integers(1, 7))):
            vocab = int(rng.integers(2, 6))
            labels = tuple(int(k) for k in rng.integers(1, vocab, int(rng.integers(0, 5))))
            lat = build_lattice(TopologySpec(TOPOLOGIES[int(rng.integers(2))], labels, vocab))
            frames = max(1, lat.min_emissions + int(rng.integers(-2, 4)))
            batch.append((lat, PosteriorTensor(rng.normal(0.0, 1.0, (frames, lat.num_states, vocab)))))
        for outcome in batch_loss_and_grad(batch):
            if isinstance(outcome, InfeasibleLengthError):
                yield [outcome.frames, -1 if outcome.min_frames is None else outcome.min_frames]
            else:
                yield from (outcome.loss, outcome.log_marginal, outcome.grad)


def _all_cases():
    yield from _random_cases()
    yield from _long_cases()


def _marginals():
    for lat, post in _all_cases():
        alpha, beta = forward_vars(lat, post), backward_vars(lat, post)
        yield from (marginal(lat, post, alpha, beta, t) for t in (1, post.num_frames))


def _trajectories():
    for seed, kind in enumerate(TOPOLOGIES):
        model, data = ToyModel(6, 32, 6, seed=seed), make_synthetic_task(seed, 20, 6, 5)
        yield [train_step(model, data, kind) for _ in range(10)]
        yield from model.params().values()


def _searches(with_lm: bool):
    rng = np.random.default_rng(3)
    vocab = 8
    counts: dict[tuple[int, ...], dict[int, int]] = {}
    for _ in range(50):
        seq = [int(k) for k in rng.integers(1, vocab, 20)]
        for j, label in enumerate(seq):
            for order in range(min(j, 2) + 1):
                by_label = counts.setdefault(tuple(seq[j - order:j]), {})
                by_label[label] = by_label.get(label, 0) + 1
    lm = CountsLm(counts, vocab) if with_lm else None
    cfg = DecodeConfig(beam_size=10, theta1=0.01, theta2=10.0, lm_weight=0.5, insertion_bonus=1.0)
    for _ in range(6):
        logits = rng.normal(0.0, 1.0, (60, vocab, vocab))
        logits[np.arange(60), :, rng.integers(0, vocab, 60)] += 4.0
        prefix, score = beam_search(TensorPosteriors(PosteriorTensor(logits)), cfg, lm)
        yield from (list(prefix), score)


# each group's values, in the order they are hashed; each call recomputes them
GROUPS = {
    "loss_and_grad": lambda: _losses(_random_cases()),
    "loss_and_grad_long": lambda: _losses(_long_cases()),
    "batch_loss_and_grad": _batches,
    "forward_vars": lambda: (forward_vars(lat, post) for lat, post in _all_cases()),
    "backward_vars": lambda: (backward_vars(lat, post) for lat, post in _all_cases()),
    "marginal": _marginals,
    "train_step": _trajectories,
    "beam_search": lambda: _searches(with_lm=False),
    "beam_search_lm": lambda: _searches(with_lm=True),
}


def main() -> int:
    for name, values in GROUPS.items():
        print(f"{name} {digest(values())}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
