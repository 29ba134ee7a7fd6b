"""Seeded verification checks shared by the CLI and the acceptance suite.

Each check generates random (lattice, posterior) cases from one seeded
generator, compares production code against an independent oracle, and
returns a deterministic report string.  Timing never enters the report so
repeated runs with the same seed are byte-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import decode, loss, oracle
from .lattice import CTC_LIKE, TOPOLOGIES, TopologySpec, _check_kind, _is_int, build_lattice
from .loss import InfeasibleLengthError
from .posteriors import PosteriorTensor

GRAD_TOL = 1e-6
ROW_SUM_TOL = 1e-9
ORACLE_TOL = 1e-10
NORM_BOUND = 1e-9
FD_STEP = 1e-5


@dataclass
class CheckResult:
    name: str
    passed: bool
    text: str


def random_case(rng: np.random.Generator, kind: str, max_t: int, max_u: int, vocab: int):
    """One random lattice with a feasible frame count and random logits.

    Resamples the label sequence, of 0 to ``max_u`` labels, when its
    shortest alignment exceeds ``max_t``, up to 1000 draws; then it raises
    :class:`InfeasibleLengthError` with ``frames`` = max_t and the last
    draw's ``min_frames``.  The empty sequence needs one frame, so a small
    max_t with a large max_u can run out of draws.  ``max_t`` must be an
    integer >= 1, ``max_u`` an integer >= 0 and ``vocab``, which counts
    the blank, an integer >= 2.
    """
    _check_kind(kind)
    if not _is_int(vocab) or vocab < 2:
        raise ValueError(f"vocab must be at least 2 (blank plus one label), as an integer; got {vocab!r}")
    for name, value, least in (("max_t", max_t, 1), ("max_u", max_u, 0)):
        if not _is_int(value) or value < least:
            raise ValueError(f"{name} must be an integer >= {least}; got {value!r}")
    for _ in range(1000):
        n_labels = int(rng.integers(0, max_u + 1))
        labels = tuple(int(k) for k in rng.integers(1, vocab, size=n_labels))
        lat = build_lattice(TopologySpec(kind, labels, vocab))
        if lat.min_emissions <= max_t:
            frames = int(rng.integers(lat.min_emissions, max_t + 1))
            logits = rng.normal(0.0, 1.0, (frames, n_labels + 1, vocab))
            return lat, PosteriorTensor(logits), labels
    raise InfeasibleLengthError(max_t, lat.min_emissions)


def check_marginal_oracle(
    seed: int, cases: int, max_t: int = 5, max_u: int = 3, vocab: int = 4,
    topologies: tuple[str, ...] = TOPOLOGIES,
) -> tuple[CheckResult, CheckResult]:
    """Production DP marginal against exhaustive path enumeration, and the
    normalization bound exp(log marginal) <= 1, which holds for softmax
    posteriors on the built-in (deterministic, state-consistent) graphs.

    Returns the oracle-match result, which also fails when the bound is
    broken, and the normalization result, both over the same cases."""
    rng = np.random.default_rng(seed)
    max_diff = 0.0
    max_prob = 0.0
    for i in range(cases):
        lat, post, _ = random_case(rng, topologies[i % len(topologies)], max_t, max_u, vocab)
        got = loss.log_marginal(lat, post)
        want = oracle.brute_force_marginal(lat, post)
        max_diff = max(max_diff, abs(got - want))
        max_prob = max(max_prob, math.exp(got))
    bounded = max_prob <= 1.0 + NORM_BOUND
    ok = max_diff < ORACLE_TOL and bounded
    text = (
        f"oracle-match: {'PASS' if ok else 'FAIL'} cases={cases} "
        f"topologies={','.join(topologies)} max_abs_diff={max_diff:.3e} tol={ORACLE_TOL:.1e} "
        f"max_total_prob={max_prob:.12f} seed={seed}"
    )
    norm_text = (
        f"normalization: {'PASS' if bounded else 'FAIL'} cases={cases} "
        f"max_total_prob={max_prob:.12f} bound=1+{NORM_BOUND:.0e} seed={seed}"
    )
    return (
        CheckResult("oracle-match", ok, text),
        CheckResult("normalization", bounded, norm_text),
    )


def check_t_invariance(
    seed: int, cases: int, max_t: int = 32, max_u: int = 3, vocab: int = 4,
    topologies: tuple[str, ...] = TOPOLOGIES,
) -> CheckResult:
    """The forward/backward tables give the same marginal at every frame."""
    rng = np.random.default_rng(seed)
    max_spread = 0.0
    for i in range(cases):
        lat, post, _ = random_case(rng, topologies[i % len(topologies)], max_t, max_u, vocab)
        alpha = loss.forward_vars(lat, post)
        beta = loss.backward_vars(lat, post)
        values = [loss.marginal(lat, post, alpha, beta, t) for t in range(1, post.num_frames + 1)]
        max_spread = max(max_spread, max(values) - min(values))
    ok = max_spread < ORACLE_TOL
    text = (
        f"t-invariance: {'PASS' if ok else 'FAIL'} cases={cases} max_t={max_t} "
        f"max_spread={max_spread:.3e} tol={ORACLE_TOL:.1e} seed={seed}"
    )
    return CheckResult("t-invariance", ok, text)


def check_reduction(
    kind: str, seed: int, cases: int, max_t: int = 5, max_u: int = 3, vocab: int = 4
) -> CheckResult:
    """The production loss of random ``kind`` cases against that
    topology's reference recursion, which reads the oracle's own
    log-softmax of the logits.  ctc-like cases first tie every decoder
    state to state 0's distribution, so the loss must equal the plain CTC
    loss of that distribution (``ctc-reduction``); the mono-rnnt marginal
    must equal the direct two-index recursion on the same tensor
    (``monornnt-reduction``)."""
    _check_kind(kind)
    name = "ctc-reduction" if kind == CTC_LIKE else "monornnt-reduction"
    rng = np.random.default_rng(seed)
    max_diff = 0.0
    for _ in range(cases):
        lat, post, labels = random_case(rng, kind, max_t, max_u, vocab)
        if kind == CTC_LIKE:
            post = PosteriorTensor(np.tile(post.logits[:, :1, :], (1, post.num_states, 1)))
            want = oracle.reference_ctc(labels, oracle.log_softmax(post.logits[:, 0, :]))
        else:
            want = oracle.reference_monornnt(labels, oracle.log_softmax(post.logits))
        max_diff = max(max_diff, abs(-loss.log_marginal(lat, post) - want))
    ok = max_diff < ORACLE_TOL
    text = (
        f"{name}: {'PASS' if ok else 'FAIL'} cases={cases} "
        f"max_abs_diff={max_diff:.3e} tol={ORACLE_TOL:.1e} seed={seed}"
    )
    return CheckResult(name, ok, text)


def check_gradients(
    seed: int, cases: int, max_t: int = 4, max_u: int = 2, vocab: int = 3,
    topologies: tuple[str, ...] = TOPOLOGIES, step: float = FD_STEP, mutation: str = "none",
) -> CheckResult:
    """Analytic gradient against central finite differences of the
    enumeration loss.

    The relative error of a case is max|analytic - fd| divided by the
    larger of the two gradient max-norms (floored at 1e-8): near-zero
    coordinates sit at the finite-difference noise floor, so a
    per-coordinate quotient would measure the oracle, not the gradient.
    ``mutation="sign-flip"`` negates the analytic gradient first; it exists
    to prove the harness can fail.
    """
    rng = np.random.default_rng(seed)
    max_rel = 0.0
    max_row = 0.0
    worst_case, worst_coord = -1, (0, 0, 0)
    for i in range(cases):
        lat, post, _ = random_case(rng, topologies[i % len(topologies)], max_t, max_u, vocab)
        analytic = loss.loss_and_grad(lat, post).grad
        if mutation == "sign-flip":
            analytic = -analytic
        elif mutation != "none":
            raise ValueError(f"unknown mutation {mutation!r}")
        fd = oracle.finite_diff_grad(lat, post, step=step)
        scale = max(np.abs(analytic).max(), np.abs(fd).max(), 1e-8)
        diff = np.abs(analytic - fd)
        rel = diff.max() / scale
        if rel > max_rel:
            max_rel = rel
            worst_case = i
            worst_coord = np.unravel_index(int(diff.argmax()), diff.shape)
        max_row = max(max_row, np.abs(analytic.sum(axis=2)).max())
    grad_ok = max_rel < GRAD_TOL
    rows_ok = max_row < ROW_SUM_TOL
    t, i, k = worst_coord
    text = (
        f"gradient-check: {'PASS' if grad_ok else 'FAIL'} cases={cases} "
        f"topologies={','.join(topologies)} max_rel_err={max_rel:.3e} tol={GRAD_TOL:.1e} "
        f"eps={step:.0e} worst_case={worst_case} worst_coord=t{t + 1},i{i},k{k} seed={seed}\n"
        f"gradient-row-sums: {'PASS' if rows_ok else 'FAIL'} "
        f"max_abs_row_sum={max_row:.3e} tol={ROW_SUM_TOL:.1e} seed={seed}"
    )
    return CheckResult("gradient-check", grad_ok and rows_ok, text)


def exhaustive_best_prefix(
    post: PosteriorTensor, lm=None, lm_weight: float = 0.0, insertion_bonus: float = 0.0
) -> tuple[tuple[int, ...], float]:
    """Argmax label sequence by scoring every candidate's CTC-like lattice
    with the forward algorithm; ties go to the lexicographically smaller
    sequence.  With an LM, a candidate scores its log marginal plus
    ``lm_weight * lm.score(labels)`` plus ``insertion_bonus * log(len)``
    (no bonus for the empty sequence), scored whole rather than one label
    at a time.  Exponential in T; for tiny decode oracles only."""
    frames, vocab = post.num_frames, post.vocab_size
    best, best_score = None, -math.inf
    candidates = []
    for length in range(frames + 1):
        candidates.extend(itertools.product(range(1, vocab), repeat=length))
    for labels in sorted(candidates):
        lat = build_lattice(TopologySpec(CTC_LIKE, labels, vocab))
        try:
            score = loss.log_marginal(lat, post)
        except InfeasibleLengthError:
            continue
        if lm is not None:
            score += lm_weight * lm.score(labels)
        if insertion_bonus != 0.0 and labels:
            score += insertion_bonus * math.log(len(labels))
        if score > best_score:
            best, best_score = labels, score
    return best, best_score


def check_beam_exactness(seed: int, cases: int, max_t: int = 4, vocab: int = 3) -> CheckResult:
    """With no pruning, no LM, and neutral weights, the beam search
    must return the same best prefix (and score) as exhaustive scoring."""
    rng = np.random.default_rng(seed)
    mismatches = 0
    max_score_diff = 0.0
    first_bad = -1
    for i in range(cases):
        frames = int(rng.integers(1, max_t + 1))
        post = PosteriorTensor(rng.normal(0.0, 1.0, (frames, frames + 1, vocab)))
        total_prefixes = sum((vocab - 1) ** n for n in range(frames + 1))
        cfg = decode.DecodeConfig(
            beam_size=total_prefixes, theta1=0.0, theta2=math.inf,
            lm_weight=0.0, insertion_bonus=0.0,
        )
        got, got_score = decode.beam_search(decode.TensorPosteriors(post), cfg)
        want, want_score = exhaustive_best_prefix(post)
        if got != want:
            mismatches += 1
            if first_bad < 0:
                first_bad = i
        else:
            max_score_diff = max(max_score_diff, abs(got_score - want_score))
    ok = mismatches == 0 and max_score_diff < 1e-9
    text = (
        f"beam-exactness: {'PASS' if ok else 'FAIL'} cases={cases} mismatches={mismatches} "
        f"first_mismatch={first_bad} max_score_diff={max_score_diff:.3e} tol=1.0e-09 seed={seed}"
    )
    return CheckResult("beam-exactness", ok, text)
