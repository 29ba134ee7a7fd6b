"""Untimed correctness checks applied to every benchmark op.

Each check returns a list of problems; an empty list means the op passed.
The loss check compares against the oracle module's direct recursions and
against identities every exact gradient satisfies, so it shares no code
with the production forward/backward pass.
"""

from __future__ import annotations

import math

import numpy as np

from graphtransducer.lattice import CTC_LIKE
from graphtransducer.oracle import reference_ctc, reference_monornnt
from graphtransducer.verify import ROW_SUM_TOL

MARGINAL_RTOL = 1e-9
OCCUPANCY_TOL = 1e-9


def emittable_mask(kind: str, labels: tuple[int, ...], vocab: int) -> np.ndarray:
    """mask[i, k] is 1 where some alignment can emit label k from decoder
    state i: blank, the next label, and for ctc-like the repeat of the last
    consumed label.  Written from the topology rules, not from a lattice."""
    mask = np.zeros((len(labels) + 1, vocab))
    mask[:, 0] = 1.0
    for i, k in enumerate(labels):
        mask[i, k] = 1.0
        if kind == CTC_LIKE:
            mask[i + 1, k] = 1.0
    return mask


def loss_reference(kind: str, labels: tuple[int, ...], logits: np.ndarray):
    """(log marginal, mask, free mass) for :func:`check_loss`.

    mono-rnnt uses the direct two-index recursion; ctc-like requires
    logits tied across decoder states and uses textbook CTC.  Works one
    decoder state at a time so that the check, not the library, never sets
    the process's peak memory.
    """
    mask = emittable_mask(kind, labels, logits.shape[-1])
    logprobs = np.empty_like(logits)
    free_mass = np.empty(logits.shape[:2])
    for i in range(logits.shape[1]):
        row = logits[:, i, :]
        peak = row.max(axis=-1, keepdims=True)
        logprobs[:, i, :] = row - (peak + np.log(np.exp(row - peak).sum(axis=-1, keepdims=True)))
        free_mass[:, i] = np.exp(logprobs[:, i, :]) @ (1.0 - mask[i])
    if kind == CTC_LIKE:
        want = -reference_ctc(labels, logprobs[:, 0, :])
    else:
        want = -reference_monornnt(labels, logprobs)
    return want, mask, free_mass


def check_loss(
    log_marginal: float,
    grad: np.ndarray,
    want_log_marginal: float,
    mask: np.ndarray,
    free_mass: np.ndarray,
) -> list[str]:
    """Check one ``loss_and_grad`` result.

    ``want_log_marginal`` comes from an oracle recursion.  ``mask`` is
    :func:`emittable_mask` and ``free_mass[t, i]`` the softmax mass of the
    labels state i cannot emit at frame t.  The exact gradient is
    p(t,i,k) * occ(t,i) - occ(t,i,k), with occ the posterior occupancies,
    so on a label state i cannot emit it equals p(t,i,k) * occ(t,i).  That
    recovers occ(t,i), and since every frame emits exactly once the
    occupancies of each frame must sum to one.  A sign-flipped or rescaled
    gradient keeps zero row sums but breaks this identity.
    """
    problems = []
    if not abs(log_marginal - want_log_marginal) <= MARGINAL_RTOL * abs(want_log_marginal):
        problems.append(
            f"log marginal {log_marginal!r} differs from the oracle's {want_log_marginal!r}"
        )
    if not np.all(np.isfinite(grad)):
        return problems + ["gradient has non-finite entries"]
    rows = grad.sum(axis=2)
    worst_row = float(np.abs(rows).max())
    if not worst_row < ROW_SUM_TOL:
        problems.append(f"gradient row sum {worst_row:.3e} exceeds {ROW_SUM_TOL:.1e}")
    states, labels = np.nonzero(mask)
    free_grad = rows.copy()
    np.subtract.at(free_grad.T, states, grad[:, states, labels].T)
    frame_occupancy = (free_grad / free_mass).sum(axis=1)
    worst_occ = float(np.abs(frame_occupancy - 1.0).max())
    if not worst_occ < OCCUPANCY_TOL:
        problems.append(f"frame occupancy off by {worst_occ:.3e} (tol {OCCUPANCY_TOL:.1e})")
    return problems


def check_step_loss(loss: float) -> list[str]:
    return [] if math.isfinite(loss) else [f"step loss {loss!r} is not finite"]


def check_episode(initial: float, final: float) -> list[str]:
    if final < initial:
        return []
    return [f"final loss {final!r} is not below the initial loss {initial!r}"]


def check_hypothesis(labels, score: float, vocab: int, frames: int) -> list[str]:
    problems = []
    bad = [k for k in labels if not 1 <= k < vocab]
    if bad:
        problems.append(f"hypothesis has labels outside 1..{vocab - 1}: {bad[:5]}")
    if len(labels) > frames:
        problems.append(f"hypothesis length {len(labels)} exceeds {frames} frames")
    if not math.isfinite(score):
        problems.append(f"hypothesis score {score!r} is not finite")
    return problems
