"""The benchmark's checks accept correct results and count corrupted ones
as failed ops."""

import dataclasses
import math

import numpy as np
import pytest

import checks
import run
import workloads
from graphtransducer import (
    CTC_LIKE, MONO_RNNT, PosteriorTensor, TopologySpec, build_lattice, loss_and_grad,
)


def _loss_case(kind):
    rng = np.random.default_rng(3)
    labels = (1, 2, 2, 3) if kind == CTC_LIKE else (4, 1, 4)
    logits = rng.normal(0.0, 1.0, (12, len(labels) + 1, 6))
    if kind == CTC_LIKE:
        logits[:] = logits[:, :1, :]
    result = loss_and_grad(build_lattice(TopologySpec(kind, labels, 6)), PosteriorTensor(logits))
    return result, checks.loss_reference(kind, labels, logits)


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_loss_check_passes_exact_result_and_fails_corruptions(kind):
    result, reference = _loss_case(kind)
    assert checks.check_loss(result.log_marginal, result.grad, *reference) == []
    assert checks.check_loss(result.log_marginal, -result.grad, *reference)
    assert checks.check_loss(result.log_marginal * (1 + 1e-8), result.grad, *reference)
    shifted = result.grad.copy()
    shifted[0, 0, 0] += 1e-6
    assert checks.check_loss(result.log_marginal, shifted, *reference)


def test_hypothesis_check():
    assert checks.check_hypothesis((1, 29, 3), -4.0, vocab=30, frames=200) == []
    assert checks.check_hypothesis((1, 30), -4.0, vocab=30, frames=200)
    assert checks.check_hypothesis((0, 2), -4.0, vocab=30, frames=200)
    assert checks.check_hypothesis((1,) * 201, -4.0, vocab=30, frames=200)
    assert checks.check_hypothesis((1,), math.inf, vocab=30, frames=200)


def test_training_checks():
    assert checks.check_step_loss(1.5) == []
    assert checks.check_step_loss(math.nan)
    assert checks.check_episode(2.0, 1.0) == []
    assert checks.check_episode(2.0, 2.0)


class _Corrupted:
    """A workload whose every call result passes through ``corrupt``."""

    def __init__(self, wl, corrupt):
        self._wl, self._corrupt = wl, corrupt

    def __getattr__(self, name):
        return getattr(self._wl, name)

    def call(self, inputs):
        return self._corrupt(self._wl.call(inputs))


def _sign_flip(result):
    return dataclasses.replace(result, grad=-result.grad)


def _perturb_marginal(result):
    return dataclasses.replace(result, log_marginal=result.log_marginal * (1 + 1e-6))


@pytest.mark.parametrize("name, corrupt", [
    ("loss-long", _sign_flip),
    ("loss-long", _perturb_marginal),
    ("decode-fused", lambda r: (r[0] + (workloads.DecodeFused.VOCAB,), r[1])),
    ("train-toy", lambda loss: math.nan),
])
def test_runner_counts_corrupted_results_as_failed(name, corrupt):
    wl = workloads.WORKLOADS[name](seed=0)
    phase = run.run_phase(_Corrupted(wl, corrupt), seconds=0.0, min_ops=2)
    assert phase.attempted == 2
    assert phase.failed == 2
    assert phase.latencies == []


def test_runner_accepts_uncorrupted_results():
    phase = run.run_phase(workloads.WORKLOADS["loss-long"](seed=0), seconds=0.0, min_ops=2)
    assert (phase.attempted, phase.failed, len(phase.latencies)) == (2, 0, 2)
