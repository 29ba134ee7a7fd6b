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
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .lattice import BLANK, CTC_LIKE, TopologySpec, _check_kind, _is_int, _is_real, _to_float, build_lattice
from .loss import InfeasibleLengthError, log_marginal
from .model import ToyModel, Utterance, _state_embedding_indices, forward_logits
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


class TensorPosteriors:
    """Posterior source for decoding: row ``logprobs[t - 1, state]`` is the
    log-softmax row for frame t (1-based) in a decoder state.
    ``state(length, last)`` is the state a prefix of that length ending in
    label ``last`` (blank for the empty prefix) selects, here its length
    clamped to the last state of a fixed tensor."""

    def __init__(self, post: PosteriorTensor):
        self.logprobs = post.logprobs
        self.num_frames = post.num_frames
        self.vocab_size = post.vocab_size
        self._last_state = post.num_states - 1

    def state(self, length: int, last: int) -> int:
        return min(length, self._last_state)

    def log_posteriors(self, prefix: tuple[int, ...], t: int) -> np.ndarray:
        last = prefix[-1] if prefix else BLANK
        return self.logprobs[t - 1, self.state(len(prefix), last)]


class ModelPosteriors(TensorPosteriors):
    """A toy model's posteriors for one utterance, from one forward over the
    labels 1..V-1: the order-1 predictor conditions state k on label k and
    state 0 on the start, so the decoder state is the prefix's last label."""

    def __init__(self, model: ToyModel, features: np.ndarray):
        every_label = Utterance(features, tuple(range(1, model.vocab_size)))
        post = PosteriorTensor(forward_logits(model, every_label))
        super().__init__(post)
        self.logits = post.logits

    def state(self, length: int, last: int) -> int:
        return last

    def sequence_score(self, labels: tuple[int, ...], kind: str) -> float:
        """Log marginal of a label sequence under the model's posteriors for
        this utterance, or -inf when the sequence is infeasible.  The logits
        rows (0, h1, ..., hU) of the one table are the decoder states that a
        forward over the sequence itself would compute."""
        labels = tuple(labels)
        lat = build_lattice(TopologySpec(kind, labels, self.vocab_size))
        try:
            return log_marginal(lat, PosteriorTensor(self.logits[:, _state_embedding_indices(labels)]))
        except InfeasibleLengthError:
            return NEG_INF


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
    prefix gets ``score`` bit for bit.  ``extension_row(context)`` holds
    the extension scores of every label after a context, each computed by
    ``extension_score``; rows are cached on first use, one per seen
    context and one that every unseen context shares.  The constructor
    rejects a context id, label or count that is not an integer, and a
    context id or label outside 1..V-1: such a context could never match
    a prefix, yet its length would raise the order.
    """

    def __init__(self, counts: Mapping[tuple[int, ...], Mapping[int, int]], vocab_size: int):
        if not _is_int(vocab_size) or vocab_size < 2:
            raise ValueError(f"vocab_size must be an integer of at least 2; got {vocab_size!r}")
        vocab_size = int(vocab_size)
        for ctx, by_label in counts.items():
            if not all(map(_is_int, ctx)):
                raise ValueError(f"context {tuple(ctx)!r}: label ids must be integers")
            if not all(1 <= c < vocab_size for c in ctx):
                raise ValueError(
                    f"context {tuple(ctx)}: label ids outside 1..{vocab_size - 1}, "
                    "which no prefix holds"
                )
            for label, count in by_label.items():
                if not _is_int(label) or not 1 <= label < vocab_size:
                    raise ValueError(
                        f"context {tuple(ctx)}: label {label!r} outside 1..{vocab_size - 1}, "
                        "as an integer"
                    )
                if not _is_int(count) or count < 1:
                    raise ValueError(
                        f"context {tuple(ctx)}, label {label}: count must be positive, "
                        f"as an integer; got {count!r}"
                    )
        self._counts = {tuple(ctx): dict(by_label) for ctx, by_label in counts.items()}
        self._totals = {ctx: sum(v.values()) for ctx, v in self._counts.items()}
        self._labels = vocab_size - 1  # non-blank labels
        self.vocab_size = vocab_size
        self.order = 1 + max((len(ctx) for ctx in self._counts), default=0)
        self._rows: dict[tuple[int, ...] | None, list[float]] = {}

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

    def _context(self, context: tuple[int, ...]) -> tuple[int, ...]:
        """The last order - 1 labels of a context, which the LM conditions on."""
        return tuple(context[-(self.order - 1):]) if self.order > 1 else ()

    def extension_score(self, context: tuple[int, ...], label: int) -> float:
        ctx = self._context(context)
        by_label = self._counts.get(ctx)
        if by_label is None:
            return -math.log(self._labels)
        return math.log(by_label.get(label, 0) + 1) - math.log(self._totals[ctx] + self._labels)

    def extension_row(self, context: tuple[int, ...]) -> list[float]:
        """``extension_score(context, k)`` for every label k, indexed by
        label; blank, which the LM never scores, gets -inf."""
        ctx = self._context(context)
        key = ctx if ctx in self._counts else None  # unseen contexts share a row
        row = self._rows.get(key)
        if row is None:
            row = [NEG_INF] + [self.extension_score(ctx, k) for k in range(1, self.vocab_size)]
            self._rows[key] = row
        return row

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
    integer stored as an int.  The other four are real numbers, not bools,
    stored as floats; ``lm_weight`` and ``insertion_bonus`` must be
    finite."""

    beam_size: int = 10
    theta1: float = 0.0
    theta2: float = math.inf
    lm_weight: float = 0.0
    insertion_bonus: float = 0.0

    def __post_init__(self):
        if not _is_int(self.beam_size):
            raise ValueError(f"beam_size must be an integer; got {self.beam_size!r}")
        object.__setattr__(self, "beam_size", int(self.beam_size))
        if self.beam_size < 1:
            raise ValueError(f"beam_size must be >= 1; got {self.beam_size}")
        for name in ("theta1", "theta2", "lm_weight", "insertion_bonus"):
            value = _to_float(getattr(self, name))
            if value is None:
                if _is_real(getattr(self, name)):
                    raise ValueError(f"{name} overflows a float; got {getattr(self, name)!r}")
                raise ValueError(f"{name} must be a real number, not a bool; got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)
        if not 0.0 <= self.theta1 < 1.0:
            raise ValueError(f"theta1 must lie in [0, 1); got {self.theta1}")
        if not self.theta2 > 0.0:
            raise ValueError(f"theta2 must be positive; got {self.theta2}")
        for name in ("lm_weight", "insertion_bonus"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite; got {getattr(self, name)}")


def prune(
    hyps: Sequence[tuple[int, ...]],
    scores: Sequence[float],
    max_hyps: int,
    theta2: float,
) -> list[int]:
    """Rank candidates by position: ``scores[j]`` is the score of prefix
    ``hyps[j]``.  Keep the best ``max_hyps`` by score, then drop anything
    scoring below best - theta2, and return the kept positions, best
    first.  Ties break toward the lexicographically smaller prefix so
    results are reproducible."""
    ranked = sorted(range(len(hyps)), key=lambda j: (-scores[j], hyps[j]))
    kept = ranked[:max_hyps]
    if not kept:
        return kept
    floor = scores[kept[0]] - theta2
    return [j for j in kept if scores[j] >= floor]


def _frame_row(row: np.ndarray, log_theta1: float) -> tuple[list[float], list[int]]:
    """One decoder state's posterior row as floats, and its labels above
    the theta1 floor; blank is always kept apart."""
    lp = row.tolist()
    return lp, [k for k in range(1, len(lp)) if lp[k] > log_theta1]


def beam_search(
    provider: TensorPosteriors, cfg: DecodeConfig, lm=None
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
    hypothesis carries its LM log probability, and a lengthened prefix
    ``h + (k,)`` adds entry k of ``lm.extension_row(h)`` to its parent's.
    An LM therefore fuses when it has ``extension_row(context)``, the
    extension scores after a context indexed by label, and ``vocab_size``,
    which must equal the provider's; a mismatch raises ``ValueError``
    before the first frame.  ``lm=None`` searches with no LM: every
    extension scores 0.0, read from one row of zeros.  A row may
    depend only on its context: a survivor keeps the row it fetched for
    the frames it goes on surviving.  The running sum equals the LM's
    whole-prefix ``score`` when its rows hold the terms of that sum, as
    ``CountsLm``'s do.

    Within a frame a prefix is keyed by an integer, ``key(()) = 0`` and
    ``key(h + (k,)) = key(h) * V + k``, which is unique because labels run
    1..V-1; its tuple is built only when it is ranked.  Each frame reads
    its posterior row once per decoder state, the state that
    ``provider.state(length, last)`` picks for a prefix.  The survivors
    expand longest first, so a survivor has continued in place before its
    parent adds the mass that lengthens it.  Only its parent reaches a
    lengthened prefix, so a new or revived one is scored where it is made,
    and the survivors' own records once every survivor has expanded.  The
    records scoring at least the P-th best are ranked by position in
    parallel lists, which ``prune`` cuts to the next frame's survivors.
    """
    vocab = provider.vocab_size
    if lm is None:
        no_lm = [0.0] * vocab
        extension_row = lambda context: no_lm
    elif lm.vocab_size != vocab:
        raise ValueError(f"the LM scores {lm.vocab_size} labels but the posteriors have {vocab}")
    else:
        extension_row = lm.extension_row
    state_of = provider.state
    weight, bonus, max_hyps = cfg.lm_weight, cfg.insertion_bonus, cfg.beam_size
    log_theta1 = math.log(cfg.theta1) if cfg.theta1 > 0.0 else NEG_INF
    # the insertion bonus by prefix length: it counts emitted labels, and an
    # empty prefix takes none rather than the singular 0^beta
    bonus_at = [bonus * math.log(n) if n else 0.0 for n in range(provider.num_frames + 1)]

    # one record per prefix key: [p_b, p_nb, LM log probability, mass,
    # length, key, prefix, label, LM row].  p_b and p_nb split the prefix's
    # probability by whether the alignment ends in blank, in the log domain;
    # mass is log(p_b + p_nb), set when the record is scored.  A lengthened
    # prefix holds its parent's prefix and its own last label, and no row;
    # a prefix continued in place holds itself, label None, and the LM row
    # its expansion used, if it fetched or carried one.
    prev = {0: [0.0, NEG_INF, 0.0, 0.0, 0, 0, (), None, None]}
    beam = [(0, (), None)]  # the survivors' (key, prefix, LM row), longest first
    for frame in provider.logprobs:
        rows: dict[int, tuple[list[float], list[int]]] = {}  # by decoder state
        cur: dict[int, list] = {}
        made, scores, continued = [], [], []
        for key, prefix, lm_row in beam:
            p_b, p_nb, lm_score, total, n, _, _, _, _ = prev[key]
            last = prefix[-1] if n else BLANK
            state = state_of(n, last)
            found = rows.get(state)
            if found is None:
                found = rows[state] = _frame_row(frame[state], log_theta1)
            lp, labels = found

            base, longer = key * vocab, n + 1
            lift = bonus_at[longer]
            for k in labels:
                child = base + k
                gain = lp[k] + (p_b if k == last else total)
                earlier = prev.get(child)
                if earlier is None:
                    if lm_row is None:
                        lm_row = extension_row(prefix)
                    lm_child = lm_score + lm_row[k]
                    rec = [NEG_INF, gain, lm_child, gain, longer, child, prefix, k, None]
                    score = gain + weight * lm_child
                else:
                    rec = cur.get(child)
                    if rec is not None:  # a survivor, already continued in place
                        rec[1] = _log_add(rec[1], gain)
                        continue
                    # scored last frame but pruned away: revive its mass
                    _, p_nb_was, lm_child, mass_was, _, _, _, _, _ = earlier
                    at = state_of(longer, k)
                    found = rows.get(at)
                    if found is None:
                        found = rows[at] = _frame_row(frame[at], log_theta1)
                    lp_child = found[0]
                    p_b_child = lp_child[BLANK] + mass_was
                    p_nb_child = _log_add(gain, lp_child[k] + p_nb_was)
                    mass = p_nb_child if p_b_child == NEG_INF else _log_add(p_b_child, p_nb_child)
                    rec = [p_b_child, p_nb_child, lm_child, mass, longer, child, prefix, k, None]
                    score = mass + weight * lm_child
                if bonus != 0.0:
                    score += lift
                cur[child] = rec
                made.append(rec)
                scores.append(score)

            # blank keeps the prefix, and the final label continues its
            # non-blank mass in place; its parent may still add to it
            own = lp[last] + p_nb if n else NEG_INF
            cur[key] = rec = [lp[BLANK] + total, own, lm_score, None, n, key, prefix, None, lm_row]
            continued.append(rec)

        for rec in continued:
            p_b, p_nb, lm_score, _, n, _, _, _, _ = rec
            # _log_add inlined where one side has no mass yet
            rec[3] = mass = p_nb if p_b == NEG_INF else _log_add(p_b, p_nb)
            score = mass + weight * lm_score
            if bonus != 0.0 and n:
                score += bonus_at[n]
            made.append(rec)
            scores.append(score)
        # every record scoring at least the P-th best is ranked, ties
        # included; prune breaks the ties and applies theta2
        cut = sorted(scores, reverse=True)[max_hyps - 1] if len(scores) > max_hyps else NEG_INF
        hyps, ranked, picked = [], [], []
        for rec, score in zip(made, scores):
            if score >= cut:
                hyps.append(rec[6] if rec[7] is None else rec[6] + (rec[7],))
                ranked.append(score)
                picked.append(rec)
        kept = prune(hyps, ranked, max_hyps, cfg.theta2)
        assert kept, "pruning emptied the beam despite the forced blank"
        beam = [(picked[j][5], hyps[j], picked[j][8])
                for j in sorted(kept, key=lambda j: picked[j][4], reverse=True)]
        prev = cur

    return hyps[kept[0]], ranked[kept[0]]


def greedy_search(provider: TensorPosteriors, kind: str) -> tuple[int, ...]:
    """Per-frame argmax decoding collapsed by the topology's rules.

    CTC-like emits a non-blank argmax only when the previous frame's argmax
    was different or blank; the monotonic topology emits every non-blank
    argmax (no repeat collapsing).  The decoder state advances with each
    emission because the prefix grows.
    """
    _check_kind(kind)
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
