"""Spans and counters for the benchmark's traced run.

A traced run replaces library callables, where the calling module looks
them up, with wrappers that record one span per call: its name, start,
end, parent span and the op it belongs to.  Spans stay in compact arrays
until the run ends.  Some wrappers also take counts, or re-run
``forward_vars`` and ``backward_vars`` on the same input; that extra work
happens inside :meth:`Tracer.probe`, whose time is subtracted from every
open span and from the op's latency.

Counts are kept only for the first ``window`` ops of the traced phase,
which every run completes, so two runs with one seed give identical
counts.  Times cover every traced op.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from graphtransducer.loss import backward_vars, forward_vars


class Tracer:
    """In-memory spans and counters of one traced phase."""

    def __init__(self, window: int):
        self.window = window
        self.op = 0
        self.excluded = 0.0
        self.counts: dict[str, int] = {}
        self.probe_seconds: dict[str, float] = {}
        self._ids: dict[str, int] = {}
        self._name, self._op, self._parent = array("i"), array("i"), array("i")
        self._start, self._end, self._probe = array("d"), array("d"), array("d")
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self._start)

    def begin(self, name: str) -> int:
        idx = len(self._start)
        self._name.append(self._ids.setdefault(name, len(self._ids)))
        self._op.append(self.op)
        self._parent.append(self._open[-1] if self._open else -1)
        self._probe.append(0.0)
        self._end.append(0.0)
        self._open.append(idx)
        self._start.append(perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._open.pop()

    @contextmanager
    def probe(self):
        """Extra measurement work, excluded from every open span and the op."""
        t0 = perf_counter()
        try:
            yield
        finally:
            spent = perf_counter() - t0
            self.excluded += spent
            for idx in self._open:
                self._probe[idx] += spent

    def count(self, name: str, amount) -> None:
        if self.op < self.window:
            self.counts[name] = self.counts.get(name, 0) + int(amount)

    def wrap(self, layer: str, fn):
        extra = _EXTRAS.get(layer)

        def traced(*args, **kwargs):
            idx = self.begin(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if extra is not None:
                extra(self, result, *args)
            return result

        return traced

    def _arrays(self):
        name = np.frombuffer(self._name, dtype=np.int32)
        parent = np.frombuffer(self._parent, dtype=np.int32)
        start = np.frombuffer(self._start)
        dur = np.frombuffer(self._end) - start - np.frombuffer(self._probe)
        has_parent = parent >= 0
        children = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        return name, np.frombuffer(self._op, dtype=np.int32), parent, start, dur, dur - children

    def per_layer(self, ops: int, fps_traced: float, fps_untraced: float) -> dict[str, float]:
        """Every per-layer metric: times per traced op, counts per window op.
        A layer the workload never calls reads 0, and so do its ratios."""
        name, op, _, _, dur, self_time = self._arrays()
        in_window = op < self.window

        def ms(layer, values=dur):
            if layer not in self._ids:
                return 0.0
            return float(values[name == self._ids[layer]].sum()) * 1e3 / ops

        def calls(layer):
            if layer not in self._ids:
                return 0.0
            return int(np.count_nonzero(in_window & (name == self._ids[layer]))) / self.window

        def counted(key):
            return self.counts.get(key, 0) / self.window

        def ratio(num, den):
            return num / den if den else 0.0

        probe_ms = {k: v * 1e3 / ops for k, v in self.probe_seconds.items()}
        fwd, bwd = probe_ms.get("loss.forward", 0.0), probe_ms.get("loss.backward", 0.0)
        return {
            "lattice.build.ms": ms("lattice.build"),
            "lattice.build.calls": calls("lattice.build"),
            "lattice.emit_edges": counted("lattice.emit_edges"),
            "posteriors.logsoftmax.ms": ms("posteriors.logsoftmax"),
            "posteriors.logsoftmax.calls": calls("posteriors.logsoftmax"),
            "posteriors.bytes_computed": counted("posteriors.bytes_computed"),
            "loss.loss_and_grad.ms": ms("loss.loss_and_grad"),
            "loss.loss_and_grad.calls": calls("loss.loss_and_grad"),
            "loss.forward.ms": fwd,
            "loss.backward.ms": bwd,
            "loss.grad.ms": ms("loss.loss_and_grad") - fwd - bwd if fwd else 0.0,
            "loss.cell_updates": counted("loss.cell_updates"),
            "loss.live_cells": counted("loss.live_cells"),
            "loss.live_ratio": ratio(self.counts.get("loss.live_cells", 0),
                                     self.counts.get("loss.cells", 0)),
            "model.train_step.ms": ms("model.train_step"),
            "model.train_step.self_ms": ms("model.train_step", self_time),
            "decode.beam_search.ms": ms("decode.beam_search"),
            "decode.beam_search.self_ms": ms("decode.beam_search", self_time),
            "decode.posteriors.calls": calls("decode.posteriors"),
            "decode.posteriors.ms": ms("decode.posteriors"),
            "decode.lm.calls": calls("decode.lm"),
            "decode.lm.ms": ms("decode.lm"),
            "decode.prune.candidates": counted("decode.prune.candidates"),
            "decode.prune.kept": counted("decode.prune.kept"),
            "decode.prune.keep_ratio": ratio(self.counts.get("decode.prune.kept", 0),
                                             self.counts.get("decode.prune.candidates", 0)),
            "decode.hyps_per_frame": ratio(counted("decode.prune.kept"),
                                           calls("decode.prune")),
            "trace.fps_traced": fps_traced,
            "trace.fps_untraced": fps_untraced,
            "trace.fps_ratio": ratio(fps_traced, fps_untraced),
        }

    def save(self, path: str) -> int:
        """Write the spans of the count window, as times in seconds from
        the first span, and return how many; a whole decode run would take
        tens of megabytes."""
        name, op, parent, start, dur, self_time = self._arrays()
        keep = op < self.window
        names = sorted(self._ids, key=self._ids.get)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(names), name=name[keep], op=op[keep],
                 parent=parent[keep], start=start[keep] - start[:1].sum(),
                 duration=dur[keep], self_time=self_time[keep])
        return int(keep.sum())


def _count_emit_edges(tracer, lat, spec):
    with tracer.probe():
        tracer.count("lattice.emit_edges", sum(lat.nodes[e.dst].emitting for e in lat.edges))


def _count_bytes(tracer, post, logits):
    # the logits read and the log-probabilities written, from array sizes
    tracer.count("posteriors.bytes_computed", post.logits.nbytes + post.logprobs.nbytes)


def _probe_loss(tracer, result, lat, post):
    # loss.grad.ms is loss_and_grad minus these two calls on the same input
    with tracer.probe():
        t0 = perf_counter()
        alpha = forward_vars(lat, post)
        t1 = perf_counter()
        backward_vars(lat, post)
        t2 = perf_counter()
        seconds = tracer.probe_seconds
        seconds["loss.forward"] = seconds.get("loss.forward", 0.0) + (t1 - t0)
        seconds["loss.backward"] = seconds.get("loss.backward", 0.0) + (t2 - t1)
        tracer.count("loss.cell_updates", post.num_frames * lat.emit.src.size)
        tracer.count("loss.live_cells", np.count_nonzero(np.isfinite(alpha)))
        tracer.count("loss.cells", alpha.size)


def _count_pruned(tracer, kept, hyps, scores, max_hyps, theta2):
    tracer.count("decode.prune.candidates", len(scores))
    tracer.count("decode.prune.kept", len(kept))


_EXTRAS = {
    "lattice.build": _count_emit_edges,
    "posteriors.logsoftmax": _count_bytes,
    "loss.loss_and_grad": _probe_loss,
    "decode.prune": _count_pruned,
}


@contextmanager
def installed(tracer: Tracer, lookups):
    """Wrap each (owner, attribute, layer) lookup for the duration."""
    saved = []
    try:
        for owner, attr, layer in lookups:
            saved.append((owner, attr, attr in vars(owner), getattr(owner, attr)))
            setattr(owner, attr, tracer.wrap(layer, saved[-1][3]))
        yield
    finally:
        for owner, attr, owned, original in reversed(saved):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
