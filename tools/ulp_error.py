"""Measure the rounding of the loss's softmax against a 40-digit reference.

The gradient's softmax p = exps / total comes from the normalizer's own
pass.  When every logit of a tensor lies within the normalizer's range,
that pass takes no row peak (exps = exp(h), lse = log(total)); otherwise
it shifts each row's peak out first (exps = exp(h - peak),
lse = peak + log(total)).  This samples (frame, state) rows of the 16
inputs of the benchmark's loss-long workload for a seed and evaluates
three forms of p with the package's own passes: the production pass
(``PosteriorTensor._normalize``), the shifted pass called directly
(``posteriors._logsumexp``), and exp(h - lse), which the gradient formed
before it took its softmax from the normalizer.  It prints each form's
mean and largest error in ulps against ``oracle.decimal_softmax``:

    python3 tools/ulp_error.py [--seed 9]

``ROWS_PER_INPUT`` rows are drawn from each input, with a generator
seeded by ``--seed``.  160 rows of 100 labels take about a second.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from graphtransducer import PosteriorTensor  # noqa: E402
from graphtransducer.oracle import decimal_softmax, ulp_error  # noqa: E402
from graphtransducer.posteriors import _logsumexp  # noqa: E402

ROWS_PER_INPUT = 10


def softmax_forms(rows: np.ndarray) -> dict[str, np.ndarray]:
    """The three softmax forms of each row of a 2-D array of logits, from
    the package's passes over the rows as a (rows, 1, labels) tensor."""
    post = PosteriorTensor(rows[:, None, :])
    exps = np.empty(post.logits.shape)
    _, total = post._normalize(exps)
    shifted_exps, shifted_total = np.empty(post.logits.shape), np.empty(total.shape)
    _logsumexp(post.logits, shifted_exps, shifted_total)
    return {
        "production (_normalize)": (exps / total)[:, 0],
        "shifted (_logsumexp)": (shifted_exps / shifted_total)[:, 0],
        "exp(h - lse)": np.exp(post.logits - post.lse)[:, 0],
    }


def report(rows: np.ndarray) -> list[str]:
    """One line per softmax form: its mean and largest error in ulps over
    every entry of ``rows``."""
    exact = decimal_softmax(rows)
    lines = []
    for name, probs in softmax_forms(rows).items():
        errors = ulp_error(probs, exact)
        lines.append(f"{name}: rows {len(rows)} mean {errors.mean():.2f} ulp max {errors.max():.2f} ulp")
    return lines


def loss_long_rows(seed: int) -> np.ndarray:
    """``ROWS_PER_INPUT`` (frame, state) rows of logits from each loss-long input
    of ``seed``, drawn without replacement.  The inputs come from the
    benchmark's own workload, so they are the ones it times."""
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import LossLong

    workload, rng = LossLong(seed), np.random.default_rng(seed)
    rows = []
    for i in range(len(workload.items)):
        _, logits = workload.prepare(i)
        flat = logits.reshape(-1, logits.shape[2])
        rows.append(flat[rng.choice(len(flat), ROWS_PER_INPUT, replace=False)])
    return np.concatenate(rows)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=9)
    args = p.parse_args(argv)
    print("\n".join(report(loss_long_rows(args.seed))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
