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


def _store_int(obj, field: str, what: str) -> None:
    """Store the field of a frozen dataclass as an int when it holds a numpy
    integer; raise ValueError when it holds a bool or a non-integer.  Callers
    test ``type(value) is int`` first, which keeps the common case cheap."""
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
        if type(self.id) is not int:
            _store_int(self, "id", "node id")
        label = self.label
        if type(label) is not int and not (isinstance(label, str) and label in (START, END)):
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
    integer in any of the three is stored as an int.
    """

    src: int
    dst: int
    log_weight: float = 0.0
    state: int | None = None

    def __post_init__(self):
        if type(self.src) is not int or type(self.dst) is not int:
            _store_int(self, "src", f"edge {self.src}->{self.dst} source")
            _store_int(self, "dst", f"edge {self.src}->{self.dst} target")
        if math.isnan(self.log_weight) or self.log_weight == math.inf:
            raise ValueError(f"edge {self.src}->{self.dst} has invalid log weight {self.log_weight}")
        if type(self.state) is not int and self.state is not None:
            _store_int(self, "state", f"edge {self.src}->{self.dst} decoder state")
        if self.state is not None and self.state < 0:
            raise ValueError(f"edge {self.src}->{self.dst} has negative decoder state {self.state}")


@dataclass(frozen=True)
class TopologySpec:
    """Which topology to build and for which (blank-free) label sequence.

    ``vocab_size`` counts all labels including blank; when omitted it is
    inferred as ``max(labels) + 1``.
    """

    kind: str
    labels: tuple[int, ...]
    vocab_size: int | None = None

    def __post_init__(self):
        labels = tuple(self.labels)
        if not all(map(_is_int, labels)):
            raise InvalidSpecError(f"label ids must be integers; got {labels!r}")
        object.__setattr__(self, "labels", tuple(map(int, labels)))
        if self.kind not in TOPOLOGIES:
            raise InvalidSpecError(
                f"unknown topology kind {self.kind!r}; expected one of {TOPOLOGIES}"
            )
        for k in self.labels:
            if k == BLANK:
                raise InvalidSpecError("blank (label 0) is not allowed in a label sequence")
            if k < 0:
                raise InvalidSpecError(f"negative label id {k}")
        if self.vocab_size is not None:
            if not _is_int(self.vocab_size) or self.vocab_size < 1:
                raise InvalidSpecError(
                    f"vocab_size must be at least 1 (the blank label), as an integer; got {self.vocab_size!r}"
                )
            if self.labels and max(self.labels) >= self.vocab_size:
                raise InvalidSpecError(
                    f"label {max(self.labels)} out of range for vocab_size {self.vocab_size}"
                )

    def resolved_vocab(self) -> int:
        if self.vocab_size is not None:
            return int(self.vocab_size)
        return max(self.labels) + 1 if self.labels else 1


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


@dataclass(frozen=True)
class Lattice:
    """Immutable lattice; safe to share across threads and reuse per utterance.

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
        if type(self.num_states) is not int or type(self.vocab_size) is not int:
            _store_int(self, "num_states", "lattice num_states")
            _store_int(self, "vocab_size", "lattice vocab_size")
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "edges", tuple(self.edges))
        for i, n in enumerate(self.nodes):
            if n.id != i:
                raise ValueError(f"node ids must equal their list position: node {n.id} at index {i}")
        n = len(self.nodes)
        for e in self.edges:
            if not (0 <= e.src < n) or not (0 <= e.dst < n):
                raise ValueError(f"edge {e.src}->{e.dst} references an unknown node id")

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
        return EmitArrays(
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.asarray(state, dtype=np.int64),
            np.asarray(label, dtype=np.int64),
            np.asarray(logw, dtype=np.float64),
        )

    @cached_property
    def final(self) -> EndArrays:
        src = [e.src for e in self.edges if e.dst == self.end_id]
        logw = [e.log_weight for e in self.edges if e.dst == self.end_id]
        return EndArrays(np.asarray(src, dtype=np.int64), np.asarray(logw, dtype=np.float64))

    @cached_property
    def min_emissions(self) -> int:
        """Fewest emitting steps on any start-to-end path."""
        dist = _bfs_layers(zip(self.emit.src.tolist(), self.emit.dst.tolist()), self.start_id)
        finishers = [dist[int(s)] for s in self.final.src if int(s) in dist]
        if not finishers:
            raise ValueError("end node is unreachable from start")
        return min(finishers)


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


def build_ctc_like_graph(spec: TopologySpec) -> Lattice:
    """Build the topology that allows label repetition and optional blanks.

    Emitting nodes are blank_0, y_1, blank_1, ..., y_U, blank_U.  Every
    emitting node has a self-loop; the direct step y_u -> y_{u+1} exists
    only when the two labels differ, so identical adjacent labels are
    forced through the blank between them.
    """
    if spec.kind != CTC_LIKE:
        raise InvalidSpecError(f"expected kind {CTC_LIKE!r}, got {spec.kind!r}")
    return _build_linear_lattice(spec, label_repeats=True)


def build_monornnt_graph(spec: TopologySpec) -> Lattice:
    """Build the strictly monotonic topology: one emission per frame, no
    label repetition (label nodes have no self-loops), and the direct step
    y_u -> y_{u+1} regardless of label equality."""
    if spec.kind != MONO_RNNT:
        raise InvalidSpecError(f"expected kind {MONO_RNNT!r}, got {spec.kind!r}")
    return _build_linear_lattice(spec, label_repeats=False)


def build_lattice(spec: TopologySpec) -> Lattice:
    if spec.kind == CTC_LIKE:
        return build_ctc_like_graph(spec)
    return build_monornnt_graph(spec)


def _build_linear_lattice(spec: TopologySpec, *, label_repeats: bool) -> Lattice:
    # CTC's repeat rule: label nodes loop, so equal neighbours need a blank between
    y = spec.labels
    big_u = len(y)
    vocab = spec.resolved_vocab()

    def blank_id(u: int) -> int:
        return 2 * u + 1

    def label_id(u: int) -> int:  # u >= 1
        return 2 * u

    end_id = 2 * big_u + 2
    nodes = [Node(0, START), Node(1, BLANK)]
    for u in range(1, big_u + 1):
        nodes.append(Node(2 * u, y[u - 1]))
        nodes.append(Node(2 * u + 1, BLANK))
    nodes.append(Node(end_id, END))

    # The decoder state on an edge is the number of labels consumed at its
    # source node, so all outgoing edges of a node share one state.
    edges: list[Edge] = [Edge(0, blank_id(0), 0.0, 0)]
    if big_u:
        edges.append(Edge(0, label_id(1), 0.0, 0))
    for u in range(big_u + 1):
        edges.append(Edge(blank_id(u), blank_id(u), 0.0, u))
    if label_repeats:
        for u in range(1, big_u + 1):
            edges.append(Edge(label_id(u), label_id(u), 0.0, u))
    for u in range(big_u):
        edges.append(Edge(blank_id(u), label_id(u + 1), 0.0, u))
    for u in range(1, big_u + 1):
        edges.append(Edge(label_id(u), blank_id(u), 0.0, u))
    for u in range(1, big_u):
        if not label_repeats or y[u - 1] != y[u]:
            edges.append(Edge(label_id(u), label_id(u + 1), 0.0, u))
    if big_u:
        edges.append(Edge(label_id(big_u), end_id, 0.0, None))
    edges.append(Edge(blank_id(big_u), end_id, 0.0, None))

    return Lattice(tuple(nodes), tuple(edges), num_states=big_u + 1, vocab_size=vocab)


def validate(lat: Lattice) -> list[str]:
    """Return all well-formedness violations (empty list iff well-formed).

    Checked rules: determinism (no node has two outgoing edges emitting the
    same label), state consistency (all outgoing emitting edges of a node
    share one decoder state), breadth-first id ordering (with the start
    node at id 0 and the end node last), reachability (start reaches every
    node, every node reaches end), and the end-edge rule (edges into end
    carry no state, all other edges carry one).

    Violations are data, not failures: each entry is a human-readable
    string prefixed with the rule family it breaks.
    """
    out: list[str] = []
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
    checks (including edge states below ``states``), the first
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
        logw = item.get("logw")
        _require(isinstance(logw, (int, float)) and not isinstance(logw, bool),
                 "logw must be a number", f"{where}.logw")
        _require(not (math.isnan(logw) or logw == math.inf),
                 "logw must not be NaN or +Infinity", f"{where}.logw")
        state = item.get("state")
        _require(state is None or (_is_int(state) and 0 <= state < states),
                 f"state must be null or an integer in 0..{states - 1}", f"{where}.state")
        edges.append(Edge(item["from"], item["to"], float(logw), state))

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
