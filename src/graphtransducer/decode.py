"""Frame-synchronous prefix beam search and greedy decoding.

The beam search tracks label prefixes with their probability mass split by
whether the alignment currently ends in blank; per frame each surviving
prefix is extended by the locally likely labels (posterior above theta1,
plus a forced blank), scored with an optional shallow-fusion LM weight and
label insertion bonus, then pruned to the best P hypotheses within a log
score width of theta2.  All probabilities are kept in the log domain;
linear-domain products and sums in the update rules become additions and
log-add-exp here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Mapping, Protocol

import numpy as np

from .lattice import BLANK, CTC_LIKE, TOPOLOGIES
from .model import ToyModel
from .posteriors import PosteriorTensor

NEG_INF = float("-inf")

GREEDY = "greedy"
PREFIX_BEAM = "prefix-beam"


def _log_add(a: float, b: float) -> float:
    """Numerically stable log(exp(a) + exp(b))."""
    if a == NEG_INF:
        return b
    if b == NEG_INF:
        return a
    if a > b:
        return a + math.log1p(math.exp(b - a))
    return b + math.log1p(math.exp(a - b))


class PosteriorProvider(Protocol):
    """Posterior source for decoding: log probabilities per (prefix, frame)."""

    num_frames: int
    vocab_size: int

    def log_posteriors(self, prefix: tuple[int, ...], t: int) -> np.ndarray:
        """Log-softmax row for frame t (1-based) in the decoder state that
        the given prefix selects."""
        ...


class TensorPosteriors:
    """Provider backed by a fixed tensor; the decoder state is the prefix
    length, clamped to the last available state."""

    def __init__(self, post: PosteriorTensor):
        self._lp = post.logprobs
        self.num_frames = post.num_frames
        self.vocab_size = post.vocab_size

    def log_posteriors(self, prefix: tuple[int, ...], t: int) -> np.ndarray:
        state = min(len(prefix), self._lp.shape[1] - 1)
        return self._lp[t - 1, state]


class ModelPosteriors:
    """Provider backed by a toy model.  The order-1 predictor makes the
    posteriors a function of the prefix's last label only, so memoizing per
    (last label) is exact and replaces one network call per hypothesis per
    frame with a table lookup."""

    def __init__(self, model: ToyModel, features: np.ndarray):
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != model.feat_dim:
            raise ValueError(f"features must have shape (T, {model.feat_dim}); got {feats.shape}")
        self._model = model
        self._pre = feats @ model.enc_w.T + model.bias  # (T, H)
        self._cache: dict[int, np.ndarray] = {}
        self.num_frames = feats.shape[0]
        self.vocab_size = model.vocab_size

    def log_posteriors(self, prefix: tuple[int, ...], t: int) -> np.ndarray:
        last = prefix[-1] if prefix else 0
        lp = self._cache.get(last)
        if lp is None:
            logits = np.tanh(self._pre + self._model.embed[last]) @ self._model.join_w.T
            peak = logits.max(axis=-1, keepdims=True)
            lp = logits - (peak + np.log(np.exp(logits - peak).sum(axis=-1, keepdims=True)))
            self._cache[last] = lp
        return lp[t - 1]


class UniformLm:
    """No-op language model: log probability 0 for every prefix."""

    def extension_score(self, context: tuple[int, ...], label: int) -> float:
        return 0.0

    def score(self, prefix: tuple[int, ...]) -> float:
        return 0.0


class CountsLm:
    """Count-based n-gram over label ids, loaded from a counts file.

    File format: one "context<TAB>label<TAB>count" per line, where context
    is a space-separated sequence of label ids (empty for no context).  The
    order is one more than the longest context.  Seen contexts are add-one
    smoothed over the non-blank vocabulary so every extension has a proper
    nonzero probability; unseen contexts back off to uniform.

    ``extension_score(context, label)`` is log P(label | context), and
    ``score(prefix)`` is the left-to-right sum of the extension scores of
    its labels, so a search that adds extension scores as it lengthens a
    prefix gets ``score`` bit for bit.
    """

    def __init__(self, counts: Mapping[tuple[int, ...], Mapping[int, int]], vocab_size: int):
        if vocab_size < 2:
            raise ValueError("vocab_size must be at least 2")
        for ctx, by_label in counts.items():
            for label, count in by_label.items():
                if not 1 <= label < vocab_size:
                    raise ValueError(
                        f"context {tuple(ctx)}: label {label} outside 1..{vocab_size - 1}"
                    )
                if count < 1:
                    raise ValueError(
                        f"context {tuple(ctx)}, label {label}: count must be positive; got {count}"
                    )
        self._counts = {tuple(ctx): dict(by_label) for ctx, by_label in counts.items()}
        self._totals = {ctx: sum(v.values()) for ctx, v in self._counts.items()}
        self._labels = vocab_size - 1  # non-blank labels
        self.order = 1 + max((len(ctx) for ctx in self._counts), default=0)

    @classmethod
    def load(cls, path, vocab_size: int) -> "CountsLm":
        counts: dict[tuple[int, ...], dict[int, int]] = {}
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.strip():
                    continue
                parts = line.rstrip("\n").split("\t")
                if len(parts) != 3:
                    raise ValueError(f"{path}:{lineno}: expected context<TAB>label<TAB>count")
                try:
                    ctx = tuple(int(tok) for tok in parts[0].split()) if parts[0].strip() else ()
                    label = int(parts[1])
                    count = int(parts[2])
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from exc
                if label < 1 or label >= vocab_size:
                    raise ValueError(f"{path}:{lineno}: label {label} outside 1..{vocab_size - 1}")
                if count < 1:
                    raise ValueError(f"{path}:{lineno}: count must be positive")
                counts.setdefault(ctx, {})
                counts[ctx][label] = counts[ctx].get(label, 0) + count
        return cls(counts, vocab_size)

    def extension_score(self, context: tuple[int, ...], label: int) -> float:
        ctx = tuple(context[-(self.order - 1):]) if self.order > 1 else ()
        by_label = self._counts.get(ctx)
        if by_label is None:
            return -math.log(self._labels)
        return math.log(by_label.get(label, 0) + 1) - math.log(self._totals[ctx] + self._labels)

    def score(self, prefix: tuple[int, ...]) -> float:
        # an explicit loop, not sum(), whose float summation is compensated
        # from Python 3.12 on and would no longer match a running sum
        total = 0.0
        for j, k in enumerate(prefix):
            total += self.extension_score(prefix[:j], k)
        return total


@dataclass(frozen=True)
class DecodeConfig:
    """Search settings.  ``theta1`` floors linear-domain posteriors for the
    local candidate set; ``theta2`` is a log-domain score width below the
    best surviving hypothesis; ``beam_size`` is the hypothesis cap P, an
    integer; ``lm_weight`` and ``insertion_bonus`` must be finite."""

    beam_size: int = 10
    theta1: float = 0.0
    theta2: float = math.inf
    lm_weight: float = 0.0
    insertion_bonus: float = 0.0
    kind: str = PREFIX_BEAM

    def __post_init__(self):
        if isinstance(self.beam_size, bool) or not isinstance(self.beam_size, numbers.Integral):
            raise ValueError(f"beam_size must be an integer; got {self.beam_size!r}")
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1; got {self.beam_size}")
        if not 0.0 <= self.theta1 < 1.0:
            raise ValueError(f"theta1 must lie in [0, 1); got {self.theta1}")
        if not self.theta2 > 0.0:
            raise ValueError(f"theta2 must be positive; got {self.theta2}")
        for name in ("lm_weight", "insertion_bonus"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite; got {getattr(self, name)}")
        if self.kind not in (GREEDY, PREFIX_BEAM):
            raise ValueError(f"unknown search kind {self.kind!r}")


def prune(
    hyps: Iterable[tuple[int, ...]],
    scores: Mapping[tuple[int, ...], float],
    max_hyps: int,
    theta2: float,
) -> list[tuple[int, ...]]:
    """Keep the best ``max_hyps`` by score, then drop anything scoring
    below best - theta2.  Ties break toward the lexicographically smaller
    prefix so results are reproducible."""
    ranked = sorted(hyps, key=lambda h: (-scores[h], h))
    kept = ranked[:max_hyps]
    if not kept:
        return kept
    floor = scores[kept[0]] - theta2
    return [h for h in kept if scores[h] >= floor]


def beam_search(
    provider: PosteriorProvider, cfg: DecodeConfig, lm=None
) -> tuple[tuple[int, ...], float]:
    """Prefix beam search over the CTC-like emission rules.

    Returns the best prefix and its final score.  Per frame, for each
    surviving prefix: blank extends the prefix unchanged; a repeated final
    label extends only the non-blank mass in place (the two emissions would
    collapse) while the blank-ending mass spawns the lengthened prefix; any
    other label spawns the lengthened prefix from the full mass.  A
    lengthened prefix that was scored last frame but pruned away is revived
    with its own blank/repeat continuation so its mass is not lost.  Update
    rules accumulate: when a prefix and its extension both survive pruning,
    the extension receives both its own continuation mass and the mass
    arriving from its parent.

    A hypothesis scores log(p_b + p_nb) + lm_weight * LM(prefix) +
    insertion_bonus * log(len(prefix)).  Scoring is incremental: each
    hypothesis carries its LM log probability, a prefix continued in place
    keeps it, and a lengthened prefix ``h + (k,)`` adds
    ``lm.extension_score(h, k)`` to its parent's when it appears; the value
    then travels with the prefix from frame to frame while it stays scored.
    No prefix is rescored from scratch, so the LM needs only
    ``extension_score(context, label)``.  The running sum equals the LM's
    whole-prefix ``score``, which is the left-to-right sum of the same
    terms.
    """
    if cfg.kind != PREFIX_BEAM:
        raise ValueError(f"beam_search requires kind={PREFIX_BEAM!r}; got {cfg.kind!r}")
    if lm is None:
        lm = UniformLm()
    extension_score = lm.extension_score
    weight, bonus = cfg.lm_weight, cfg.insertion_bonus
    log_theta1 = math.log(cfg.theta1) if cfg.theta1 > 0.0 else NEG_INF

    # one record per prefix: [p_b, p_nb, LM log probability], log domain,
    # with the mass split by whether the alignment ends in blank
    prev: dict[tuple[int, ...], list] = {(): [0.0, NEG_INF, 0.0]}
    pruned: list[tuple[int, ...]] = [()]
    scores = {(): 0.0}  # mass 1, LM log probability 0, no bonus
    for t in range(1, provider.num_frames + 1):
        cur: dict[tuple[int, ...], list] = {}
        pruned_set = set(pruned)
        for prefix in pruned:
            row = provider.log_posteriors(prefix, t)
            # labels above the theta1 floor; blank is always kept apart
            candidates = (row > log_theta1).nonzero()[0].tolist()
            if candidates and candidates[0] == BLANK:
                del candidates[0]
            lp = row.tolist()
            p_b, p_nb, lm_score = prev[prefix]
            total = _log_add(p_b, p_nb)

            # blank keeps the prefix; a final label absent from the local
            # candidate set still continues the non-blank mass in place
            rec = cur.get(prefix)
            if rec is None:
                rec = cur[prefix] = [NEG_INF, NEG_INF, lm_score]
            rec[0] = _log_add(rec[0], lp[BLANK] + total)
            last = prefix[-1] if prefix else None
            if last is not None and not lp[last] > log_theta1:
                rec[1] = _log_add(rec[1], lp[last] + p_nb)

            for k in candidates:
                longer = prefix + (k,)
                # the record `longer` had last frame, if it was scored then
                earlier = prev.get(longer)
                rec_longer = cur.get(longer)
                if rec_longer is None:
                    lm_longer = (
                        earlier[2] if earlier is not None
                        else lm_score + extension_score(prefix, k)
                    )
                    rec_longer = cur[longer] = [NEG_INF, NEG_INF, lm_longer]
                if k == last:
                    rec_longer[1] = _log_add(rec_longer[1], lp[k] + p_b)
                    rec[1] = _log_add(rec[1], lp[k] + p_nb)
                else:
                    rec_longer[1] = _log_add(rec_longer[1], lp[k] + total)
                if earlier is not None and longer not in pruned_set:
                    # scored last frame but pruned away: revive its mass
                    row_longer = provider.log_posteriors(longer, t)
                    rec_longer[0] = _log_add(
                        rec_longer[0], float(row_longer[BLANK]) + _log_add(earlier[0], earlier[1])
                    )
                    rec_longer[1] = _log_add(rec_longer[1], float(row_longer[k]) + earlier[1])

        scores = {}
        for prefix, (p_b, p_nb, lm_score) in cur.items():
            score = _log_add(p_b, p_nb) + weight * lm_score
            # the insertion bonus counts emitted labels; an empty prefix
            # takes no bonus rather than the singular 0^beta
            if bonus != 0.0 and prefix:
                score += bonus * math.log(len(prefix))
            scores[prefix] = score
        pruned = prune(cur.keys(), scores, cfg.beam_size, cfg.theta2)
        assert pruned, "pruning emptied the beam despite the forced blank"
        prev = cur

    best = pruned[0]
    return best, float(scores[best])


def greedy_search(provider: PosteriorProvider, kind: str) -> tuple[int, ...]:
    """Per-frame argmax decoding collapsed by the topology's rules.

    CTC-like emits a non-blank argmax only when the previous frame's argmax
    was different or blank; the monotonic topology emits every non-blank
    argmax (no repeat collapsing).  The decoder state advances with each
    emission because the prefix grows.
    """
    if kind not in TOPOLOGIES:
        raise ValueError(f"unknown topology kind {kind!r}")
    prefix: tuple[int, ...] = ()
    previous = BLANK
    for t in range(1, provider.num_frames + 1):
        k = int(np.argmax(provider.log_posteriors(prefix, t)))
        if kind == CTC_LIKE:
            if k != BLANK and (k != previous or previous == BLANK):
                prefix += (k,)
            previous = k
        else:
            if k != BLANK:
                prefix += (k,)
    return prefix


def edit_distance(a, b) -> int:
    """Levenshtein distance between two label sequences."""
    a, b = tuple(a), tuple(b)
    row = list(range(len(b) + 1))
    for i, x in enumerate(a, start=1):
        prev_diag, row[0] = row[0], i
        for j, y in enumerate(b, start=1):
            prev_diag, row[j] = row[j], min(row[j] + 1, row[j - 1] + 1, prev_diag + (x != y))
    return row[-1]
