"""Alignment lattices: construction, validation, and serialization.

A lattice is a directed graph over which a transducer loss marginalizes.
Emitting nodes carry an output label (0 is the blank label); edges carry a
log transition weight and the index of the decoder state whose distribution
scores the emission at the target node.  Edges into the non-emitting end
node carry a weight but no state and emit nothing.

Two built-in topologies are provided for a label sequence ``y``:

* ``ctc-like``  -- labels may repeat across frames, blanks are optional
  except between identical adjacent labels.
* ``mono-rnnt`` -- every label is emitted exactly once, at most one label
  per frame, blanks optional everywhere.

Both share one node layout for U labels: start is node 0, the blank after
u labels is node 2u + 1, label u is node 2u, and end is node 2U + 2.  So
the decoder state of a built-in edge, the number of labels consumed at its
source, is ``src // 2``.  One builder, :func:`_build_stack`, writes that
layout for a whole batch of label sequences as one graph of disjoint
parts, which a training step scores; :func:`build_lattice` is its
one-member case.
"""

from __future__ import annotations

import json
import math
import numbers
from collections import defaultdict, deque
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

BLANK = 0
START = "start"
END = "end"

CTC_LIKE = "ctc-like"
MONO_RNNT = "mono-rnnt"
TOPOLOGIES = (CTC_LIKE, MONO_RNNT)

_MAX_INT64 = np.iinfo(np.int64).max


class InvalidSpecError(ValueError):
    """A topology spec that cannot produce a lattice."""


class LatticeFormatError(ValueError):
    """Lattice text that cannot be parsed; ``where`` locates the problem."""

    def __init__(self, message: str, where: str | None = None):
        self.where = where
        super().__init__(f"{where}: {message}" if where else message)


def _is_int(value) -> bool:
    # a bool counts as an int in Python, and a numpy integer does not
    return type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _is_real(value) -> bool:
    # a bool counts as a real number in Python, and a numpy float does too
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _to_float(value) -> float | None:
    """``value`` as a float, or None when it is not a real number (see
    :func:`_is_real`) or is too large for a float."""
    if not _is_real(value):
        return None
    try:
        return float(value)
    except OverflowError:
        return None


def _store_int(obj, field: str, what: str) -> None:
    """Store the field of a frozen dataclass as an int when it holds a numpy
    integer; raise ValueError when it holds a bool or a non-integer."""
    value = getattr(obj, field)
    if not _is_int(value):
        raise ValueError(f"{what} {value!r} is not an integer")
    object.__setattr__(obj, field, int(value))


@dataclass(frozen=True)
class Node:
    """A lattice node.

    ``label`` is an integer label id for emitting nodes (0 = blank) or one
    of the strings "start"/"end" for the two non-emitting endpoints.  A numpy
    integer is stored as an int; any other label is rejected, and so is a
    negative one, which numpy would read from the end of a row.  ``id`` must
    be an integer too, stored as an int: the loss offsets it and uses it as
    an array index.
    """

    id: int
    label: int | str

    def __post_init__(self):
        _store_int(self, "id", "node id")
        label = self.label
        if not (isinstance(label, str) and label in (START, END)):
            if not _is_int(label):
                raise ValueError(f'node {self.id} label {label!r} is not an integer, "start" or "end"')
            object.__setattr__(self, "label", int(label))
        if self.emitting and self.label < 0:
            raise ValueError(f"node {self.id} has negative label {self.label}")

    @property
    def emitting(self) -> bool:
        return isinstance(self.label, int)


@dataclass(frozen=True)
class Edge:
    """Directed edge.  ``state`` is None exactly on edges into the end node.

    ``log_weight`` may be -inf (a zero-weight edge) but not NaN or +inf,
    which would turn the marginal into a finite wrong value or NaN; a
    ``state`` that is negative or not an integer is rejected for the same
    reason, and so are ``src`` and ``dst`` when not integers.  A numpy
    integer in any of the three is stored as an int.  ``log_weight`` is
    stored as a float, so ``serialize`` can write it; a bool or anything
    that is not a real number is rejected.
    """

    src: int
    dst: int
    log_weight: float = 0.0
    state: int | None = None

    def __post_init__(self):
        _store_int(self, "src", f"edge {self.src}->{self.dst} source")
        _store_int(self, "dst", f"edge {self.src}->{self.dst} target")
        weight = _to_float(self.log_weight)
        if weight is None:
            problem = "overflows" if _is_real(self.log_weight) else "is not a real number"
            raise ValueError(f"edge {self.src}->{self.dst} log weight {self.log_weight!r} {problem}")
        object.__setattr__(self, "log_weight", weight)
        if math.isnan(self.log_weight) or self.log_weight == math.inf:
            raise ValueError(f"edge {self.src}->{self.dst} has invalid log weight {self.log_weight}")
        if self.state is not None:
            _store_int(self, "state", f"edge {self.src}->{self.dst} decoder state")
            if self.state < 0:
                raise ValueError(f"edge {self.src}->{self.dst} has negative decoder state {self.state}")


def _check_kind(kind) -> None:
    if kind not in TOPOLOGIES:
        raise InvalidSpecError(f"unknown topology kind {kind!r}; expected one of {TOPOLOGIES}")


def _checked_labels(labels, vocab_size: int | None = None) -> tuple[int, ...]:
    """``labels`` as a tuple of ints, or :class:`InvalidSpecError` unless it
    is a sequence of integers (a bool is not one), none of them the blank,
    negative or too large for int64, and, when ``vocab_size`` is given,
    each below it.  The checks of :class:`TopologySpec` and of the toy
    model's label sequences."""
    try:
        labels = tuple(labels)
    except TypeError:
        raise InvalidSpecError(f"labels must be a sequence of label ids; got {labels!r}") from None
    if not all(map(_is_int, labels)):
        raise InvalidSpecError(f"label ids must be integers; got {labels!r}")
    labels = tuple(map(int, labels))
    for k in labels:
        if k == BLANK:
            raise InvalidSpecError("blank (label 0) is not allowed in a label sequence")
        if k < 0:
            raise InvalidSpecError(f"negative label id {k}")
        if k > _MAX_INT64:
            raise InvalidSpecError(f"label id {k} does not fit a 64-bit integer")
    if vocab_size is not None and labels and max(labels) >= vocab_size:
        raise InvalidSpecError(f"label {max(labels)} out of range for vocab_size {vocab_size}")
    return labels


@dataclass(frozen=True)
class TopologySpec:
    """Which topology to build and for which (blank-free) label sequence.

    ``vocab_size`` counts all labels including blank; when omitted it is
    inferred as ``max(labels) + 1`` (1 for no labels) and stored, so after
    construction it is always an int.  Labels and ``vocab_size`` are stored
    as ints; a label must fit the int64 arrays the lattice holds.
    """

    kind: str
    labels: tuple[int, ...]
    vocab_size: int | None = None

    def __post_init__(self):
        _check_kind(self.kind)
        if self.vocab_size is not None:
            if not _is_int(self.vocab_size) or self.vocab_size < 1:
                raise InvalidSpecError(
                    f"vocab_size must be at least 1 (the blank label), as an integer; got {self.vocab_size!r}"
                )
            object.__setattr__(self, "vocab_size", int(self.vocab_size))
        object.__setattr__(self, "labels", _checked_labels(self.labels, self.vocab_size))
        if self.vocab_size is None:
            object.__setattr__(self, "vocab_size", max(self.labels) + 1 if self.labels else 1)


class EmitArrays(NamedTuple):
    """Emitting edges (those whose target emits) as parallel numpy arrays."""

    src: np.ndarray
    dst: np.ndarray
    state: np.ndarray
    label: np.ndarray
    log_weight: np.ndarray


class EndArrays(NamedTuple):
    """Edges into the end node as parallel numpy arrays."""

    src: np.ndarray
    log_weight: np.ndarray


def _read_only(arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


@dataclass(frozen=True)
class Lattice:
    """Immutable lattice; safe to share across threads and reuse per utterance.

    The loss reads only ``num_nodes``, ``start_id``, ``end_id`` and two sets
    of read-only edge arrays: ``emit``, the edges into emitting nodes, and
    ``final``, the edges into the end node.  ``nodes`` and ``edges`` hold
    the same graph as :class:`Node` and :class:`Edge` objects; ``==``,
    ``hash`` and ``repr`` use them.  :func:`build_lattice` writes the arrays,
    and a built lattice derives its objects on first read, the emitting
    edges in array order and then the end edges.  A lattice constructed
    from objects derives its arrays on first read instead, so an emitting
    edge without a decoder state constructs and raises ``ValueError`` when
    ``emit`` is read.

    Node ids equal their position in ``nodes`` (enforced at construction),
    so the id range is contiguous by construction.  Semantic rules such as
    determinism and state consistency are checked by :func:`validate`.
    ``num_states`` and ``vocab_size`` must be integers; a numpy integer is
    stored as an int.
    """

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    num_states: int
    vocab_size: int

    def __post_init__(self):
        _store_int(self, "num_states", "lattice num_states")
        _store_int(self, "vocab_size", "lattice vocab_size")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        for i, n in enumerate(self.nodes):
            if not isinstance(n, Node):
                raise ValueError(f"nodes[{i}] is {n!r}, not a Node")
            if n.id != i:
                raise ValueError(f"node ids must equal their list position: node {n.id} at index {i}")
        n = len(self.nodes)
        for i, e in enumerate(self.edges):
            if not isinstance(e, Edge):
                raise ValueError(f"edges[{i}] is {e!r}, not an Edge")
            if not (0 <= e.src < n) or not (0 <= e.dst < n):
                raise ValueError(f"edge {e.src}->{e.dst} references an unknown node id")

    @classmethod
    def _from_arrays(cls, num_nodes: int, emit: EmitArrays, final: EndArrays,
                     num_states: int, vocab_size: int) -> Lattice:
        """A lattice that holds ``emit`` and ``final``, with start node 0
        and end node ``num_nodes - 1``.  Every other node must be the
        target of an emitting edge, which gives its label."""
        lat = object.__new__(cls)
        lat.__dict__.update(
            num_states=num_states, vocab_size=vocab_size, num_nodes=num_nodes,
            start_id=0, end_id=num_nodes - 1, emit=_read_only(emit), final=_read_only(final),
        )
        return lat

    def __getattr__(self, name: str):
        # reached only for the nodes and edges of a lattice made by
        # _from_arrays, on their first read
        if name not in ("nodes", "edges") or "emit" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        em, fin = self.emit, self.final
        labels = dict(zip(em.dst.tolist(), em.label.tolist()))
        labels[self.start_id], labels[self.end_id] = START, END
        object.__setattr__(self, "nodes", tuple(Node(g, labels[g]) for g in range(self.num_nodes)))
        object.__setattr__(self, "edges", tuple(
            map(Edge, em.src.tolist(), em.dst.tolist(), em.log_weight.tolist(), em.state.tolist())
        ) + tuple(Edge(g, self.end_id, w, None) for g, w in zip(fin.src.tolist(), fin.log_weight.tolist())))
        return self.__dict__[name]

    @cached_property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @cached_property
    def start_id(self) -> int:
        ids = [n.id for n in self.nodes if n.label == START]
        if len(ids) != 1:
            raise ValueError(f"lattice has {len(ids)} start nodes, expected exactly 1")
        return ids[0]

    @cached_property
    def end_id(self) -> int:
        ids = [n.id for n in self.nodes if n.label == END]
        if len(ids) != 1:
            raise ValueError(f"lattice has {len(ids)} end nodes, expected exactly 1")
        return ids[0]

    @cached_property
    def emit(self) -> EmitArrays:
        src, dst, state, label, logw = [], [], [], [], []
        for e in self.edges:
            target = self.nodes[e.dst]
            if not target.emitting:
                continue
            if e.state is None:
                raise ValueError(f"emitting edge {e.src}->{e.dst} carries no decoder state")
            src.append(e.src)
            dst.append(e.dst)
            state.append(e.state)
            label.append(target.label)
            logw.append(e.log_weight)
        return _read_only(EmitArrays(
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.asarray(state, dtype=np.int64),
            np.asarray(label, dtype=np.int64),
            np.asarray(logw, dtype=np.float64),
        ))

    @cached_property
    def final(self) -> EndArrays:
        src = [e.src for e in self.edges if e.dst == self.end_id]
        logw = [e.log_weight for e in self.edges if e.dst == self.end_id]
        return _read_only(EndArrays(np.asarray(src, dtype=np.int64), np.asarray(logw, dtype=np.float64)))

    @property
    def min_emissions(self) -> int:
        """Fewest emitting steps on any start-to-end path."""
        if self._fewest_emissions is None:
            raise ValueError("end node is unreachable from start")
        return self._fewest_emissions

    @cached_property
    def _fewest_emissions(self) -> int | None:
        """:attr:`min_emissions`, or None when the end node is unreachable."""
        return _fewest_emissions_from(self.start_id, self.emit.src, self.emit.dst, self.final.src)


def _fewest_emissions_from(start: int, src: np.ndarray, dst: np.ndarray, final_src: np.ndarray) -> int | None:
    """Fewest emitting edges ``src`` -> ``dst`` on a path from node ``start``
    to a node in ``final_src``, or None when no such path exists."""
    dist = _bfs_layers(zip(src.tolist(), dst.tolist()), start)
    return min((dist[s] for s in final_src.tolist() if s in dist), default=None)


def _bfs_layers(arcs, source: int) -> dict[int, int]:
    """Breadth-first layer of every node reachable from ``source`` along
    the (from, to) pairs in ``arcs``."""
    succ = defaultdict(list)
    for a, b in arcs:
        succ[a].append(b)
    dist = {source: 0}
    queue = deque([source])
    while queue:
        g = queue.popleft()
        for h in succ[g]:
            if h not in dist:
                dist[h] = dist[g] + 1
                queue.append(h)
    return dist


def build_lattice(spec: TopologySpec) -> Lattice:
    """Build the lattice of ``spec.kind`` over ``spec.labels`` (y_1..y_U).

    Node 0 is start, node 2u + 1 the blank after u labels, node 2u
    (u >= 1) label y_u, and node 2U + 2 end.  The arcs come family by
    family: start, blank loops, label loops (ctc-like), blank -> next
    label, label -> blank, label -> next label (ctc-like only between
    different labels).  An arc's decoder state is the number of labels
    consumed at its source, ``src // 2``; the end edges from label U and
    from blank U carry none.  This edge order fixes the order in which the
    loss adds its grouped sums.

    This is :func:`_build_stack` of the one label sequence, the one place
    that writes this layout and order: its arrays become the lattice's
    ``emit`` and ``final`` arrays, and the ``nodes`` and ``edges`` objects
    are made only if something reads them, so scoring a built lattice
    makes none.
    """
    stack = _build_stack(spec.kind, [spec.labels], [0])
    return Lattice._from_arrays(
        int(stack.nodes[1]),
        EmitArrays(stack.src, stack.dst, stack.column, stack.label, stack.log_weight),
        EndArrays(stack.final_src, stack.final_weight),
        num_states=len(spec.labels) + 1,
        vocab_size=spec.vocab_size,
    )


class _Stack(NamedTuple):
    """B lattices as one graph of disjoint parts, scored against B tensors
    side by side on the state axis.  Member b's node g is node
    ``nodes[b] + g``, its decoder state i is state column ``states[b] + i``,
    its emitting edges are entries ``edges[b]:edges[b + 1]`` of ``src``,
    ``dst``, ``column`` (the edge's state column), ``label`` and
    ``log_weight``, its end edges are entries ``finals[b]:finals[b + 1]``
    of ``final_src`` and ``final_weight``, and it runs ``frames[b]``
    frames, which ``final_frames`` repeats for each end edge."""

    frames: list[int]
    nodes: np.ndarray
    edges: np.ndarray
    finals: np.ndarray
    states: np.ndarray
    start: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    column: np.ndarray
    label: np.ndarray
    log_weight: np.ndarray
    final_src: np.ndarray
    final_weight: np.ndarray
    final_frames: np.ndarray


def _offsets(counts: np.ndarray) -> np.ndarray:
    return np.concatenate([[0], np.cumsum(counts)])


def _build_stack(kind: str, labels: list, frames: list[int]) -> _Stack:
    """The lattices of topology ``kind`` over each label sequence in
    ``labels``, a tuple or an int64 array of ids that passed the checks of
    :class:`TopologySpec`, as one :class:`_Stack` whose member b runs
    ``frames[b]`` frames and has U_b + 1 decoder states.

    Each arc family of :func:`build_lattice` is written for every member
    at once, in member order, and one stable sort by member then puts
    each member's arcs in family order, so member b's arcs are those of
    its own lattice in the same order.  No lattice or spec is made.
    """
    _check_kind(kind)
    sizes = np.array([len(seq) for seq in labels], dtype=np.int64)
    members = np.arange(sizes.size)
    y = np.concatenate([np.asarray(seq, dtype=np.int64) for seq in labels])
    nodes = _offsets(2 * sizes + 3)
    starts = nodes[:-1]
    # Member b's nodes start at nodes[b] = 2 * states[b] + b, and states[b]
    # counts the labels and members before it.  So, counting from 0 over
    # the batch, label i (of member b) is node 2i + 3b + 2 and blank j is
    # node 2j + b + 1, and an arc's state column, states[b] plus its
    # source's local id // 2, is (src - b) // 2.
    of_label = np.repeat(members, sizes)
    of_blank = np.repeat(members, sizes + 1)
    label_node = 2 * np.arange(y.size) + 3 * of_label + 2
    blank_node = 2 * np.arange(of_blank.size) + of_blank + 1
    started = members[sizes > 0]
    loops = label_node if kind == CTC_LIKE else label_node[:0]
    # label i -> label i + 1 of the same member (ctc-like: a different label)
    skips = of_label[1:] == of_label[:-1]
    if kind == CTC_LIKE:
        skips &= y[1:] != y[:-1]
    skips = np.flatnonzero(skips)
    # the families in order: start, blank loops, label loops, blank -> next
    # label, label -> blank, label -> next label
    member = np.concatenate([members, started, of_blank, of_label[:loops.size], of_label, of_label,
                             of_label[skips]])
    src = np.concatenate([starts, starts[started], blank_node, loops, label_node - 1, label_node,
                          label_node[skips]])
    dst = np.concatenate([starts + 1, starts[started] + 2, blank_node, loops, label_node, label_node + 1,
                          label_node[skips + 1]])
    # a stable sort by member, done as numpy's default sort (the one the
    # loss's np.unique runs) of unique keys: the stable kind loads another
    # sort routine, which raised a run's peak memory
    order = np.argsort(member * member.size + np.arange(member.size))
    member, src, dst = member[order], src[order], dst[order]
    node_label = np.zeros(nodes[-1], dtype=np.int64)
    node_label[label_node] = y
    # the end edges leave label U (when U > 0) and then blank U, the nodes
    # just before the member's end node nodes[b + 1] - 1
    final_counts = 1 + (sizes > 0)
    finals = _offsets(final_counts)
    final_src = np.repeat(nodes[1:] - 1 - finals[1:], final_counts) + np.arange(finals[-1])
    return _Stack(
        frames,
        nodes,
        _offsets(np.bincount(member, minlength=sizes.size)),
        finals,
        _offsets(sizes + 1),
        starts,
        src,
        dst,
        (src - member) // 2,
        node_label[dst],
        np.zeros(src.size),
        final_src,
        np.zeros(final_src.size),
        np.repeat(frames, final_counts),
    )


def validate(lat: Lattice) -> list[str]:
    """Return all well-formedness violations (empty list iff well-formed).

    Checked rules: determinism (no node has two outgoing edges emitting the
    same label), state consistency (all outgoing emitting edges of a node
    share one decoder state), breadth-first id ordering (with the start
    node at id 0 and the end node last), reachability (start reaches every
    node, every node reaches end), the end-edge rule (edges into end
    carry no state, all other edges carry one) and the endpoint rule (no
    edge enters start or leaves end, since no alignment can use one).  The
    ``range`` rules come first: ``num_states`` >= 0, ``vocab_size`` >= 1,
    every edge state below ``num_states`` and every emitting label below
    ``vocab_size``.

    Violations are data, not failures: each entry is a human-readable
    string prefixed with the rule family it breaks.
    """
    out: list[str] = []
    if lat.num_states < 0:
        out.append(f"range: num_states must be >= 0, is {lat.num_states}")
    if lat.vocab_size < 1:
        out.append(f"range: vocab_size must be >= 1, is {lat.vocab_size}")
    for e in lat.edges:
        if e.state is not None and e.state >= lat.num_states:
            out.append(
                f"range: edge {e.src}->{e.dst} state {e.state} is not below num_states {lat.num_states}"
            )
    for node in lat.nodes:
        if node.emitting and node.label >= lat.vocab_size:
            out.append(
                f"range: node {node.id} label {node.label} is not below vocab_size {lat.vocab_size}"
            )

    n = len(lat.nodes)
    starts = [node.id for node in lat.nodes if node.label == START]
    ends = [node.id for node in lat.nodes if node.label == END]
    if len(starts) != 1:
        out.append(f"id-ordering: expected exactly one start node, found {len(starts)}")
    elif starts[0] != 0:
        out.append(f"id-ordering: start node must have id 0, has id {starts[0]}")
    if len(ends) != 1:
        out.append(f"id-ordering: expected exactly one end node, found {len(ends)}")
    elif ends[0] != n - 1:
        out.append(f"id-ordering: end node must have the largest id {n - 1}, has id {ends[0]}")

    succ = defaultdict(list)
    for e in lat.edges:
        succ[e.src].append(e)

    # Breadth-first ordering: node ids must be non-decreasing in BFS layer.
    if len(starts) == 1:
        dist = _bfs_layers(((e.src, e.dst) for e in lat.edges), starts[0])
        deepest = -1
        for node in lat.nodes:
            if node.id not in dist:
                continue
            if dist[node.id] < deepest:
                out.append(
                    f"id-ordering: node {node.id} sits in BFS layer {dist[node.id]} "
                    f"but a smaller id already reached layer {deepest}"
                )
            deepest = max(deepest, dist[node.id])

    end_set = set(ends)
    for node in lat.nodes:
        seen_labels = set()
        states = set()
        for e in succ[node.id]:
            target = lat.nodes[e.dst]
            if not target.emitting:
                continue
            if target.label in seen_labels:
                out.append(
                    f"determinism: node {node.id} has multiple outgoing edges emitting label {target.label}"
                )
            seen_labels.add(target.label)
            if e.state is not None:
                states.add(e.state)
        if len(states) > 1:
            out.append(
                f"state-consistency: node {node.id} outgoing edges use states {sorted(states)}"
            )

    for e in lat.edges:
        if e.dst in end_set:
            if e.state is not None:
                out.append(f"end-edge: edge {e.src}->{e.dst} into the end node must not carry a state")
        elif e.state is None:
            out.append(f"end-edge: emitting edge {e.src}->{e.dst} carries no decoder state")
    start_set = set(starts)
    for e in lat.edges:
        if e.dst in start_set:
            out.append(f"endpoint: edge {e.src}->{e.dst} enters the start node")
        if e.src in end_set:
            out.append(f"endpoint: edge {e.src}->{e.dst} leaves the end node")

    if len(starts) == 1:
        for node in lat.nodes:
            if node.id not in dist:
                out.append(f"reachability: node {node.id} is unreachable from start")
    if len(ends) == 1:
        coreach = _bfs_layers(((e.dst, e.src) for e in lat.edges), ends[0])
        for node in lat.nodes:
            if node.id not in coreach:
                out.append(f"reachability: node {node.id} cannot reach the end node")
    return out


def _encode_label(label: int | str):
    if label in (START, END):
        return label
    return "blank" if label == BLANK else int(label)


def serialize(lat: Lattice) -> str:
    """Render a validated lattice as JSON text (see the format in README)."""
    violations = validate(lat)
    if violations:
        raise ValueError("refusing to serialize an invalid lattice: " + violations[0])
    doc = {
        "vocab": lat.vocab_size,
        "states": lat.num_states,
        "nodes": [{"id": n.id, "label": _encode_label(n.label)} for n in lat.nodes],
        "edges": [
            {"from": e.src, "to": e.dst, "logw": e.log_weight, "state": e.state}
            for e in lat.edges
        ],
    }
    return json.dumps(doc, indent=2)


def _require(cond: bool, message: str, where: str):
    if not cond:
        raise LatticeFormatError(message, where=where)


def deserialize(text: str) -> Lattice:
    """Parse JSON lattice text; raises :class:`LatticeFormatError` with the
    offending location on malformed input.  Like :func:`serialize`, it
    accepts only well-formed lattices: after the schema and referential
    checks, which include the ``range`` rules with located messages, the first
    :func:`validate` violation is raised as a format error, so every
    lattice it returns can be scored."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise LatticeFormatError(exc.msg, where=f"line {exc.lineno} column {exc.colno}") from exc
    _require(isinstance(doc, dict), "top-level value must be an object", "$")
    for key in ("vocab", "states", "nodes", "edges"):
        _require(key in doc, f"missing required field {key!r}", "$")
    vocab = doc["vocab"]
    _require(_is_int(vocab) and vocab >= 1, "must be an integer >= 1", "vocab")
    states = doc["states"]
    _require(_is_int(states) and states >= 0, "must be an integer >= 0", "states")
    raw_nodes = doc["nodes"]
    _require(isinstance(raw_nodes, list) and raw_nodes, "must be a non-empty array", "nodes")

    by_id: dict[int, Node] = {}
    n_start = n_end = 0
    for i, item in enumerate(raw_nodes):
        where = f"nodes[{i}]"
        _require(isinstance(item, dict), "must be an object", where)
        _require(_is_int(item.get("id")), "id must be an integer", f"{where}.id")
        node_id = item["id"]
        _require(node_id not in by_id, f"duplicate node id {node_id}", f"{where}.id")
        label = item.get("label")
        if label == "blank":
            label = BLANK
        if _is_int(label):
            _require(0 <= label < vocab, f"label {label} out of range for vocab {vocab}", f"{where}.label")
        elif label == START:
            n_start += 1
        elif label == END:
            n_end += 1
        else:
            raise LatticeFormatError(
                f"label must be an integer, \"blank\", \"start\" or \"end\"; got {label!r}",
                where=f"{where}.label",
            )
        by_id[node_id] = Node(node_id, label)
    _require(set(by_id) == set(range(len(by_id))),
             "node ids must form the contiguous range 0..N-1", "nodes")
    _require(n_start == 1, f"expected exactly one \"start\" node, found {n_start}", "nodes")
    _require(n_end == 1, f"expected exactly one \"end\" node, found {n_end}", "nodes")

    raw_edges = doc["edges"]
    _require(isinstance(raw_edges, list), "must be an array", "edges")
    edges = []
    for i, item in enumerate(raw_edges):
        where = f"edges[{i}]"
        _require(isinstance(item, dict), "must be an object", where)
        for key in ("from", "to"):
            _require(_is_int(item.get(key)), f"{key} must be an integer", f"{where}.{key}")
            _require(item[key] in by_id, f"unknown node id {item[key]}", f"{where}.{key}")
        _require(_is_real(item.get("logw")), "logw must be a number", f"{where}.logw")
        logw = _to_float(item["logw"])
        _require(logw is not None, "logw is an integer too large for a float", f"{where}.logw")
        _require(not (math.isnan(logw) or logw == math.inf),
                 "logw must not be NaN or +Infinity", f"{where}.logw")
        state = item.get("state")
        _require(state is None or (_is_int(state) and 0 <= state < states),
                 f"state must be null or an integer in 0..{states - 1}", f"{where}.state")
        edges.append(Edge(item["from"], item["to"], logw, state))

    nodes = tuple(by_id[i] for i in range(len(by_id)))
    lat = Lattice(nodes, tuple(edges), num_states=states, vocab_size=vocab)
    violations = validate(lat)
    if violations:
        raise LatticeFormatError(violations[0], where="lattice")
    return lat


def to_dot(lat: Lattice) -> str:
    """Render the lattice as GraphViz DOT text."""
    lines = ["digraph lattice {", "  rankdir=LR;"]
    for n in lat.nodes:
        if n.label in (START, END):
            text, shape = n.label, "diamond"
        elif n.label == BLANK:
            text, shape = "blank", "circle"
        else:
            text, shape = str(n.label), "circle"
        lines.append(f'  n{n.id} [label="{n.id}:{text}" shape={shape}];')
    for e in lat.edges:
        parts = []
        if e.state is not None:
            parts.append(f"i={e.state}")
        if e.log_weight != 0.0:
            parts.append(f"logw={e.log_weight:g}")
        attr = f' [label="{" ".join(parts)}"]' if parts else ""
        lines.append(f"  n{e.src} -> n{e.dst}{attr};")
    lines.append("}")
    return "\n".join(lines)
