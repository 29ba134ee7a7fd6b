import json
import math
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphtransducer.lattice
from graphtransducer import (
    BLANK,
    CTC_LIKE,
    MONO_RNNT,
    Edge,
    InfeasibleLengthError,
    InvalidSpecError,
    Lattice,
    LatticeFormatError,
    Node,
    PosteriorTensor,
    TopologySpec,
    build_ctc_like_graph,
    build_lattice,
    build_monornnt_graph,
    batch_loss_and_grad,
    deserialize,
    enumerate_paths,
    log_marginal,
    loss_and_grad,
    serialize,
    to_dot,
    validate,
)
from graphtransducer.lattice import _build_stack
from graphtransducer.loss import _stack

label_seqs = st.lists(st.integers(min_value=1, max_value=5), max_size=6).map(tuple)


def edge_set(lat):
    return {(e.src, e.dst) for e in lat.edges}


def test_ctc_like_two_distinct_labels():
    lat = build_ctc_like_graph(TopologySpec(CTC_LIKE, (1, 2), 3))
    assert len(lat.nodes) == 7  # start, blank, a, blank, b, blank, end
    assert [n.label for n in lat.nodes] == ["start", BLANK, 1, BLANK, 2, BLANK, "end"]
    # distinct adjacent labels keep the direct skip edge
    assert (2, 4) in edge_set(lat)
    assert validate(lat) == []
    assert lat.num_states == 3 and lat.vocab_size == 3


def test_ctc_like_repeated_label_forces_blank():
    lat = build_ctc_like_graph(TopologySpec(CTC_LIKE, (1, 1), 2))
    assert (2, 4) not in edge_set(lat)  # y1 -> y2 removed
    assert (2, 3) in edge_set(lat) and (3, 4) in edge_set(lat)  # only route via the blank
    assert validate(lat) == []


def test_empty_label_sequence_is_blank_only():
    ctc = build_ctc_like_graph(TopologySpec(CTC_LIKE, (), 2))
    mono = build_monornnt_graph(TopologySpec(MONO_RNNT, (), 2))
    assert ctc == mono
    assert len(ctc.nodes) == 3
    assert edge_set(ctc) == {(0, 1), (1, 1), (1, 2)}


def test_monornnt_no_label_self_loops():
    lat = build_monornnt_graph(TopologySpec(MONO_RNNT, (1,), 2))
    assert (2, 2) not in edge_set(lat)
    assert (1, 1) in edge_set(lat)  # blanks keep their loops
    # exactly two full alignments of length 2: blank-then-a and a-then-blank
    paths = enumerate_paths(lat, 2)
    assert sorted(p.nodes for p in paths) == [(0, 1, 2, 4), (0, 2, 3, 4)]


def test_monornnt_keeps_skip_edge_for_equal_labels():
    lat = build_monornnt_graph(TopologySpec(MONO_RNNT, (1, 1), 2))
    assert (2, 4) in edge_set(lat)
    assert validate(lat) == []


def test_state_is_labels_consumed_at_source():
    lat = build_ctc_like_graph(TopologySpec(CTC_LIKE, (1, 2), 3))
    by_src = {}
    for e in lat.edges:
        if e.state is not None:
            by_src.setdefault(e.src, set()).add(e.state)
    # start and blank_0 carry state 0; y_u and blank_u carry state u
    assert by_src == {0: {0}, 1: {0}, 2: {1}, 3: {1}, 4: {2}, 5: {2}}


# The edge order fixes the order in which the loss's grouped log-sum-exps
# add, so reordering the builder's arcs changes trained values in the last
# bits (test_training_trajectory_is_pinned); the sets alone are checked above.
@pytest.mark.parametrize("kind, labels, order", [
    (CTC_LIKE, (1, 1, 2), [
        (0, 1, 0), (0, 2, 0),                        # start
        (1, 1, 0), (3, 3, 1), (5, 5, 2), (7, 7, 3),  # blank loops
        (2, 2, 1), (4, 4, 2), (6, 6, 3),             # label loops
        (1, 2, 0), (3, 4, 1), (5, 6, 2),             # blank -> next label
        (2, 3, 1), (4, 5, 2), (6, 7, 3),             # label -> blank
        (4, 6, 2),                                   # label -> different next label
        (6, 8, None), (7, 8, None),                  # end
    ]),
    (MONO_RNNT, (1, 1, 2), [
        (0, 1, 0), (0, 2, 0),
        (1, 1, 0), (3, 3, 1), (5, 5, 2), (7, 7, 3),
        (1, 2, 0), (3, 4, 1), (5, 6, 2),
        (2, 3, 1), (4, 5, 2), (6, 7, 3),
        (2, 4, 1), (4, 6, 2),
        (6, 8, None), (7, 8, None),
    ]),
    (CTC_LIKE, (), [(0, 1, 0), (1, 1, 0), (1, 2, None)]),
    (MONO_RNNT, (), [(0, 1, 0), (1, 1, 0), (1, 2, None)]),
])
def test_builtin_edge_order_is_pinned(kind, labels, order):
    lat = build_lattice(TopologySpec(kind, labels, 3))
    assert [(e.src, e.dst, e.state) for e in lat.edges] == order


def reference_build(spec):
    """The object-based builder that ``build_lattice`` replaced: Node and
    Edge objects, family by family, with the end edges last."""
    y = spec.labels
    ctc = spec.kind == CTC_LIKE
    end = 2 * len(y) + 2
    nodes = [Node(0, "start"), Node(1, BLANK)]
    for u, k in enumerate(y, 1):
        nodes += (Node(2 * u, k), Node(2 * u + 1, BLANK))
    nodes.append(Node(end, "end"))

    label_ids = range(2, end, 2)
    arcs = [(0, 1), (0, 2)] if y else [(0, 1)]
    arcs += [(b, b) for b in range(1, end, 2)]
    if ctc:
        arcs += [(a, a) for a in label_ids]
    arcs += [(a - 1, a) for a in label_ids]
    arcs += [(a, a + 1) for a in label_ids]
    arcs += [(a, a + 2) for a in label_ids[:-1] if not ctc or y[a // 2 - 1] != y[a // 2]]
    edges = [Edge(src, dst, 0.0, src // 2) for src, dst in arcs]
    if y:
        edges.append(Edge(end - 2, end, 0.0, None))
    edges.append(Edge(end - 1, end, 0.0, None))
    return Lattice(tuple(nodes), tuple(edges), num_states=len(y) + 1, vocab_size=spec.resolved_vocab())


def test_array_builder_matches_object_builder():
    rng = random.Random(13)
    for _ in range(3000):
        vocab = rng.randint(2, 5)
        labels = tuple(rng.randint(1, vocab - 1) for _ in range(rng.randint(0, 9)))
        spec = TopologySpec(rng.choice([CTC_LIKE, MONO_RNNT]), labels, vocab)
        built, want = build_lattice(spec), reference_build(spec)
        # the arrays first, while the built lattice holds nothing else
        for got, ref in zip(built.emit + built.final, want.emit + want.final):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert built.num_nodes == want.num_nodes
        assert (built.start_id, built.end_id) == (want.start_id, want.end_id)
        assert built == want and hash(built) == hash(want) and repr(built) == repr(want)
        assert serialize(built) == serialize(want)
        assert to_dot(built) == to_dot(want)


@st.composite
def label_batches(draw):
    """A topology, a vocabulary and 1-12 label sequences of 0-8 labels,
    which a vocabulary of 2 or 3 fills with adjacent repeats, each with
    its own frame count."""
    vocab = draw(st.integers(2, 5))
    seqs = draw(st.lists(st.lists(st.integers(1, vocab - 1), max_size=8).map(tuple), min_size=1, max_size=12))
    frames = draw(st.lists(st.integers(1, 20), min_size=len(seqs), max_size=len(seqs)))
    return draw(st.sampled_from([CTC_LIKE, MONO_RNNT])), vocab, seqs, frames


@settings(max_examples=250, derandomize=True, deadline=None)
@given(label_batches())
def test_batch_builder_equals_stacked_lattices_bit_for_bit(batch):
    # what a training step scores, against one lattice per sequence
    # stacked as the loss stacks any lattices; only the frame and state
    # counts of a tensor are read there
    kind, vocab, seqs, frames = batch
    want = _stack([
        (build_lattice(TopologySpec(kind, labels, vocab)), SimpleNamespace(num_frames=t, num_states=len(labels) + 1))
        for labels, t in zip(seqs, frames)
    ])
    got = _build_stack(kind, list(seqs), frames)
    assert got.frames == want.frames
    for name in got._fields[1:]:
        assert getattr(got, name).dtype == getattr(want, name).dtype, name
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def _no_objects(*args, **kwargs):
    raise AssertionError("a Node or Edge object was made")


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_scoring_a_built_lattice_makes_no_node_or_edge(kind, monkeypatch):
    monkeypatch.setattr(graphtransducer.lattice, "Node", _no_objects)
    monkeypatch.setattr(graphtransducer.lattice, "Edge", _no_objects)
    rng = np.random.default_rng(4)
    pairs = [
        (build_lattice(TopologySpec(kind, labels, 4)), PosteriorTensor(rng.normal(size=(6, len(labels) + 1, 4))))
        for labels in ((), (1,), (2, 2), (1, 3, 1))
    ]
    for lat, post in pairs:
        assert lat.min_emissions <= 6
        assert math.isfinite(log_marginal(lat, post))
        assert math.isfinite(loss_and_grad(lat, post).loss)
    assert all(math.isfinite(result.loss) for result in batch_loss_and_grad(pairs))
    # an infeasible member reports the shortest path from the arrays too
    short = build_lattice(TopologySpec(kind, (1, 1, 2), 4))
    with pytest.raises(InfeasibleLengthError):
        log_marginal(short, PosteriorTensor(rng.normal(size=(1, 4, 4))))
    # the guard does see a derivation of the objects
    with pytest.raises(AssertionError, match="Node or Edge"):
        short.edges


def test_built_lattice_derives_its_objects_once():
    lat = build_lattice(TopologySpec(CTC_LIKE, (1, 2), 3))
    assert lat.nodes is lat.nodes and lat.edges is lat.edges
    with pytest.raises(AttributeError, match="no attribute 'labels'"):
        lat.labels


@pytest.mark.parametrize("path", ["built", "objects"])
def test_lattice_arrays_are_read_only(path):
    # a write would make the loss and serialize disagree
    lat = build_lattice(TopologySpec(CTC_LIKE, (1, 2), 3))
    if path == "objects":
        lat = Lattice(lat.nodes, lat.edges, lat.num_states, lat.vocab_size)
    for array in lat.emit + lat.final:
        assert not array.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        lat.emit.label[0] = 3
    with pytest.raises(ValueError, match="read-only"):
        lat.final.log_weight[0] = -1.0


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
def test_builders_reject_blank_in_labels(kind):
    with pytest.raises(InvalidSpecError):
        TopologySpec(kind, (1, 0, 2), 3)


def test_builders_reject_wrong_kind():
    with pytest.raises(InvalidSpecError):
        build_ctc_like_graph(TopologySpec(MONO_RNNT, (1,), 2))
    with pytest.raises(InvalidSpecError):
        build_monornnt_graph(TopologySpec(CTC_LIKE, (1,), 2))


def test_spec_rejects_label_outside_vocab():
    with pytest.raises(InvalidSpecError):
        TopologySpec(CTC_LIKE, (3,), 3)


# int() would truncate 1.7 to 1, read True as 1 and split "12" into 1, 2
@pytest.mark.parametrize("labels", [(1.7,), (True,), "12", (np.float64(1.0),)])
def test_spec_rejects_non_integer_labels(labels):
    with pytest.raises(InvalidSpecError, match="label ids must be integers"):
        TopologySpec(CTC_LIKE, labels, 3)


@pytest.mark.parametrize("vocab", [2.5, True, "3"])
def test_spec_rejects_non_integer_vocab(vocab):
    with pytest.raises(InvalidSpecError, match="vocab_size must be at least 1"):
        TopologySpec(CTC_LIKE, (1,), vocab)


def test_spec_stores_numpy_vocab_as_int():
    spec = TopologySpec(CTC_LIKE, (1,), np.int64(3))
    assert spec.vocab_size == 3 and type(spec.vocab_size) is int
    assert spec == TopologySpec(CTC_LIKE, (1,), 3)


@pytest.mark.parametrize("labels", [None, 5, 1.5])
def test_spec_rejects_labels_that_are_not_a_sequence(labels):
    with pytest.raises(InvalidSpecError, match="labels must be a sequence"):
        TopologySpec(CTC_LIKE, labels)


def test_spec_rejects_label_beyond_int64():
    with pytest.raises(InvalidSpecError, match="does not fit a 64-bit integer"):
        TopologySpec(CTC_LIKE, (2**63,))


@settings(max_examples=60, derandomize=True)
@given(labels=label_seqs, kind=st.sampled_from([CTC_LIKE, MONO_RNNT]))
def test_builders_produce_wellformed_lattices(labels, kind):
    lat = build_lattice(TopologySpec(kind, labels, 6))
    assert validate(lat) == []
    assert len(lat.nodes) == 2 * len(labels) + 3
    assert all(e.log_weight == 0.0 for e in lat.edges)  # unit transition weights


@settings(max_examples=60, derandomize=True)
@given(labels=label_seqs)
def test_edge_count_relation_between_topologies(labels):
    ctc = build_ctc_like_graph(TopologySpec(CTC_LIKE, labels, 6))
    mono = build_monornnt_graph(TopologySpec(MONO_RNNT, labels, 6))
    repeats = sum(1 for a, b in zip(labels, labels[1:]) if a == b)
    assert len(mono.edges) == len(ctc.edges) - len(labels) + repeats


@settings(max_examples=40, derandomize=True)
@given(labels=label_seqs)
def test_outgoing_emitting_edges_share_one_state(labels):
    for kind in (CTC_LIKE, MONO_RNNT):
        lat = build_lattice(TopologySpec(kind, labels, 6))
        states_by_src = {}
        for e in lat.edges:
            if e.state is not None:
                states_by_src.setdefault(e.src, set()).add(e.state)
        assert all(len(s) == 1 for s in states_by_src.values())


def collapse_ctc(emitted):
    out = []
    for k in emitted:
        if out and out[-1] == k:
            continue
        out.append(k)
    return tuple(k for k in out if k != BLANK)


@pytest.mark.parametrize("labels", [(), (1,), (1, 2), (1, 1), (2, 1, 2)])
@pytest.mark.parametrize("frames", [1, 2, 3, 4, 5, 6])
def test_every_ctc_path_collapses_to_labels(labels, frames):
    lat = build_ctc_like_graph(TopologySpec(CTC_LIKE, labels, 3))
    for path in enumerate_paths(lat, frames):
        emitted = [lat.nodes[g].label for g in path.nodes[1:-1]]
        assert collapse_ctc(emitted) == labels


@pytest.mark.parametrize("labels", [(), (1,), (1, 2), (1, 1), (2, 1, 2)])
@pytest.mark.parametrize("frames", [1, 2, 3, 4, 5, 6])
def test_every_mono_path_emits_labels_once_in_order(labels, frames):
    lat = build_monornnt_graph(TopologySpec(MONO_RNNT, labels, 3))
    for path in enumerate_paths(lat, frames):
        emitted = [lat.nodes[g].label for g in path.nodes[1:-1]]
        assert tuple(k for k in emitted if k != BLANK) == labels


# --- validate() on hand-built graphs ---------------------------------------


def tiny(nodes, edges, states=1, vocab=2):
    return Lattice(tuple(nodes), tuple(edges), num_states=states, vocab_size=vocab)


def test_validate_reports_determinism_violation():
    lat = tiny(
        [Node(0, "start"), Node(1, 1), Node(2, 1), Node(3, "end")],
        [Edge(0, 1, 0.0, 0), Edge(0, 2, 0.0, 0), Edge(1, 3, 0.0, None), Edge(2, 3, 0.0, None)],
    )
    assert any(v.startswith("determinism:") for v in validate(lat))


def test_validate_reports_state_inconsistency():
    lat = tiny(
        [Node(0, "start"), Node(1, 1), Node(2, 2), Node(3, "end")],
        [Edge(0, 1, 0.0, 0), Edge(0, 2, 0.0, 1), Edge(1, 3, 0.0, None), Edge(2, 3, 0.0, None)],
        states=2,
        vocab=3,
    )
    assert any(v.startswith("state-consistency:") for v in validate(lat))


def test_validate_reports_state_on_end_edge():
    lat = tiny(
        [Node(0, "start"), Node(1, 1), Node(2, "end")],
        [Edge(0, 1, 0.0, 0), Edge(1, 2, 0.0, 0)],
    )
    assert any(v.startswith("end-edge:") for v in validate(lat))


def test_validate_reports_missing_state_on_emitting_edge():
    lat = tiny(
        [Node(0, "start"), Node(1, 1), Node(2, "end")],
        [Edge(0, 1, 0.0, None), Edge(1, 2, 0.0, None)],
    )
    assert any(v.startswith("end-edge:") for v in validate(lat))


def test_validate_reports_unreachable_node():
    lat = tiny(
        [Node(0, "start"), Node(1, 1), Node(2, 1), Node(3, "end")],
        [Edge(0, 1, 0.0, 0), Edge(1, 3, 0.0, None), Edge(2, 3, 0.0, None)],
    )
    assert any(v.startswith("reachability:") for v in validate(lat))


def test_validate_reports_dead_end_node():
    lat = tiny(
        [Node(0, "start"), Node(1, 1), Node(2, 1), Node(3, "end")],
        [Edge(0, 1, 0.0, 0), Edge(0, 2, 0.0, 0), Edge(1, 3, 0.0, None)],
    )
    # node 2 cannot reach the end node
    assert any(v.startswith("reachability:") and "2" in v for v in validate(lat))


def test_validate_reports_bfs_order_violation():
    # node 1 sits two hops away while node 2 is one hop -> ids out of layer order
    lat = tiny(
        [Node(0, "start"), Node(1, 2), Node(2, 1), Node(3, "end")],
        [Edge(0, 2, 0.0, 0), Edge(2, 1, 0.0, 0), Edge(1, 3, 0.0, None), Edge(2, 3, 0.0, None)],
        vocab=3,
    )
    assert any(v.startswith("id-ordering:") for v in validate(lat))


def test_validate_reports_misplaced_endpoints():
    lat = tiny(
        [Node(0, "end"), Node(1, 1), Node(2, "start")],
        [Edge(2, 1, 0.0, 0), Edge(1, 0, 0.0, None)],
    )
    problems = validate(lat)
    assert any("start node must have id 0" in v for v in problems)
    assert any("end node must have the largest id" in v for v in problems)


# no alignment can use an edge into start or out of end: the loss and the
# oracle both drop it, while the path sum would count it
@pytest.mark.parametrize("nodes, edges, violation", [
    ([Node(0, "start"), Node(1, 1), Node(2, "end")],
     [Edge(0, 1, 0.0, 0), Edge(1, 0, 0.0, 0), Edge(1, 2, 0.0, None)],
     "endpoint: edge 1->0 enters the start node"),
    ([Node(0, "start"), Node(1, BLANK), Node(2, "end")],
     [Edge(0, 1, 0.0, 0), Edge(1, 2, 0.0, None), Edge(2, 1, 0.0, 0)],
     "endpoint: edge 2->1 leaves the end node"),
], ids=["into-start", "out-of-end"])
def test_validate_reports_edges_at_the_wrong_endpoint(nodes, edges, violation):
    lat = tiny(nodes, edges)
    assert validate(lat) == [violation]
    assert enumerate_paths(lat, 2) == []
    with pytest.raises(ValueError, match="invalid lattice: endpoint:"):
        serialize(lat)
    doc = {
        "vocab": 2, "states": 1,
        "nodes": [{"id": n.id, "label": n.label} for n in nodes],
        "edges": [{"from": e.src, "to": e.dst, "logw": 0.0, "state": e.state} for e in edges],
    }
    with pytest.raises(LatticeFormatError, match="endpoint:") as info:
        deserialize(json.dumps(doc))
    assert info.value.where == "lattice"


def test_validate_reports_every_violation_in_rule_order():
    lat = tiny(
        [Node(0, 1), Node(1, "start"), Node(2, 2), Node(3, "end"), Node(4, 1), Node(5, 0)],
        [
            Edge(1, 0, 0.0, 0),
            Edge(1, 4, 0.0, 1),
            Edge(0, 3, 0.0, 2),
            Edge(4, 2, 0.0, None),
            Edge(2, 3, 0.0, None),
            Edge(5, 5, 0.0, 0),
        ],
        states=3,
        vocab=3,
    )
    assert validate(lat) == [
        "id-ordering: start node must have id 0, has id 1",
        "id-ordering: end node must have the largest id 5, has id 3",
        "id-ordering: node 1 sits in BFS layer 0 but a smaller id already reached layer 1",
        "id-ordering: node 4 sits in BFS layer 1 but a smaller id already reached layer 2",
        "determinism: node 1 has multiple outgoing edges emitting label 1",
        "state-consistency: node 1 outgoing edges use states [0, 1]",
        "end-edge: edge 0->3 into the end node must not carry a state",
        "end-edge: emitting edge 4->2 carries no decoder state",
        "reachability: node 5 is unreachable from start",
        "reachability: node 5 cannot reach the end node",
    ]


def test_lattice_constructor_enforces_referential_integrity():
    with pytest.raises(ValueError, match="unknown node id"):
        tiny([Node(0, "start"), Node(1, "end")], [Edge(0, 5, 0.0, 0)])
    with pytest.raises(ValueError, match="position"):
        tiny([Node(0, "start"), Node(2, "end")], [])


def test_lattice_constructor_rejects_entries_of_the_wrong_type():
    with pytest.raises(ValueError, match=r"nodes\[0\] is \(0, 'start'\), not a Node"):
        Lattice(((0, "start"),), (), 1, 2)
    lat = build_lattice(TopologySpec(CTC_LIKE, (), 2))
    with pytest.raises(ValueError, match=r"edges\[1\] is \(0, 1\), not an Edge"):
        Lattice(lat.nodes, (lat.edges[0], (0, 1)), 1, 2)


# --- serialization ----------------------------------------------------------


@pytest.mark.parametrize("kind", [CTC_LIKE, MONO_RNNT])
@pytest.mark.parametrize("labels", [(), (1,), (1, 2), (1, 1, 2)])
def test_round_trip_identity(kind, labels):
    lat = build_lattice(TopologySpec(kind, labels, 4))
    assert deserialize(serialize(lat)) == lat


def test_serialize_refuses_invalid_lattice():
    lat = tiny(
        [Node(0, "start"), Node(1, 1), Node(2, "end")],
        [Edge(0, 1, 0.0, 0), Edge(1, 2, 0.0, 0)],
    )
    with pytest.raises(ValueError, match="invalid lattice"):
        serialize(lat)


@pytest.mark.parametrize(
    "states, vocab, violation, where",
    [
        (1, 3, "range: edge 3->3 state 1 is not below num_states 1", "edges[3].state"),
        (-1, 3, "range: num_states must be >= 0, is -1", "states"),
        (2, 1, "range: node 2 label 1 is not below vocab_size 1", "nodes[2].label"),
    ],
)
def test_serialize_refuses_what_deserialize_rejects(states, vocab, violation, where):
    lat = build_ctc_like_graph(TopologySpec(CTC_LIKE, (1,), 3))
    bad = Lattice(lat.nodes, lat.edges, states, vocab)
    assert validate(bad)[0] == violation
    with pytest.raises(ValueError, match="invalid lattice: range:"):
        serialize(bad)
    # deserialize rejects the same document, located at the offending field
    doc = json.loads(serialize(lat))
    doc["states"], doc["vocab"] = states, vocab
    with pytest.raises(LatticeFormatError) as info:
        deserialize(json.dumps(doc))
    assert info.value.where == where


def test_deserialize_rejects_missing_end_node():
    doc = json.loads(serialize(build_ctc_like_graph(TopologySpec(CTC_LIKE, (1,), 2))))
    doc["nodes"] = [n for n in doc["nodes"] if n["label"] != "end"]
    doc["edges"] = [e for e in doc["edges"] if e["to"] != 4]
    with pytest.raises(LatticeFormatError, match="end"):
        deserialize(json.dumps(doc))


def test_deserialize_names_unknown_edge_target():
    doc = json.loads(serialize(build_ctc_like_graph(TopologySpec(CTC_LIKE, (1,), 2))))
    doc["edges"][0]["to"] = 9
    with pytest.raises(LatticeFormatError, match="unknown node id 9"):
        deserialize(json.dumps(doc))


def test_deserialize_reports_syntax_position():
    with pytest.raises(LatticeFormatError, match="line"):
        deserialize('{"vocab": 2, "states": 1, "nodes": [}')


def test_deserialize_rejects_bad_label():
    with pytest.raises(LatticeFormatError, match="label"):
        deserialize(json.dumps({
            "vocab": 2, "states": 1,
            "nodes": [{"id": 0, "label": "start"}, {"id": 1, "label": 7},
                      {"id": 2, "label": "end"}],
            "edges": [],
        }))


@pytest.mark.parametrize("weight", [math.inf, math.nan])
def test_edge_rejects_nan_and_positive_infinite_weight(weight):
    with pytest.raises(ValueError, match="invalid log weight"):
        Edge(0, 1, weight, 0)


@pytest.mark.parametrize("weight", [np.float32(-0.5), np.int64(-1), -2, np.float64(-0.25)],
                         ids=["float32", "int64", "int", "float64"])
def test_edge_stores_a_real_log_weight_as_a_float(weight):
    lat = build_ctc_like_graph(TopologySpec(CTC_LIKE, (1,), 2))
    edges = (Edge(0, 1, weight, 0),) + lat.edges[1:]
    built = Lattice(lat.nodes, edges, lat.num_states, lat.vocab_size)
    assert type(built.edges[0].log_weight) is float
    assert built.edges[0].log_weight == float(weight)
    assert deserialize(serialize(built)) == built


@pytest.mark.parametrize("weight", [True, "0.5", None, 1j, -10**400],
                         ids=["bool", "str", "none", "complex", "huge-int"])
def test_edge_rejects_a_log_weight_that_is_not_a_real_number(weight):
    # True would serialize as `true`, which deserialize rejects
    with pytest.raises(ValueError, match="log weight"):
        Edge(0, 1, weight, 0)


def test_edge_accepts_negative_infinite_weight():
    assert Edge(0, 1, -math.inf, 0).log_weight == -math.inf


# numpy reads a negative index from the end of a row, so either would give
# the loss a finite wrong marginal
def test_edge_rejects_negative_state():
    with pytest.raises(ValueError, match="negative decoder state -1"):
        Edge(0, 1, 0.0, -1)


def test_node_rejects_negative_label():
    with pytest.raises(ValueError, match="negative label -1"):
        Node(1, -1)
    assert [Node(0, k).emitting for k in ("start", BLANK, 2, "end")] == [False, True, True, False]


@pytest.mark.parametrize("label", [1.5, True, "blank", "", None, np.float64(1.0)])
def test_node_rejects_non_integer_label(label):
    with pytest.raises(ValueError, match='is not an integer, "start" or "end"'):
        Node(1, label)


@pytest.mark.parametrize("state", [1.5, True, "1"])
def test_edge_rejects_non_integer_state(state):
    # the loss would read 1.5 as state 1
    with pytest.raises(ValueError, match="is not an integer"):
        Edge(0, 1, 0.0, state)


@pytest.mark.parametrize("src, dst", [(1.5, 1), (1, 1.0), (True, 1), (0, "1"), (np.float64(1.0), 1)],
                         ids=["float-src", "float-dst", "bool", "str", "numpy-float"])
def test_edge_rejects_non_integer_endpoint(src, dst):
    # a ctc-like self-loop Edge(1.5, 1, ...) built, passed validate and
    # scored as 1 -> 1; the batched loss also offsets node ids by integers
    with pytest.raises(ValueError, match="is not an integer"):
        Edge(src, dst, 0.0, 0)


@pytest.mark.parametrize("node_id", [1.0, True, "1", np.float64(1.0)],
                         ids=["float", "bool", "str", "numpy-float"])
def test_node_rejects_non_integer_id(node_id):
    with pytest.raises(ValueError, match="node id .* is not an integer"):
        Node(node_id, BLANK)


@pytest.mark.parametrize("field, value", [
    ("num_states", 2.0), ("num_states", True), ("vocab_size", 2.5), ("vocab_size", "2"),
])
def test_lattice_rejects_non_integer_sizes(field, value):
    built = build_ctc_like_graph(TopologySpec(CTC_LIKE, (1,), 2))
    sizes = {"num_states": built.num_states, "vocab_size": built.vocab_size, field: value}
    with pytest.raises(ValueError, match=f"lattice {field} .* is not an integer"):
        Lattice(built.nodes, built.edges, **sizes)


def test_numpy_integer_ids_and_sizes_are_stored_as_ints():
    built = build_ctc_like_graph(TopologySpec(CTC_LIKE, (1,), 2))
    lat = Lattice(
        tuple(Node(np.int64(n.id), n.label) for n in built.nodes),
        tuple(Edge(np.int32(e.src), np.int64(e.dst), e.log_weight, e.state) for e in built.edges),
        np.int64(built.num_states), np.int64(built.vocab_size),
    )
    assert lat == built
    assert all(type(n.id) is int for n in lat.nodes)
    assert all(type(e.src) is int and type(e.dst) is int for e in lat.edges)
    assert type(lat.num_states) is int and type(lat.vocab_size) is int


def test_numpy_integer_labels_and_states_score_as_ints():
    # a numpy-integer label must emit: a non-emitting blank node would pass
    # validate and give a finite wrong marginal
    spec = TopologySpec(CTC_LIKE, np.array([1]), np.int64(2))
    assert spec.labels == (1,) and type(spec.labels[0]) is int
    built = build_ctc_like_graph(spec)
    lat = Lattice(
        tuple(Node(n.id, n.label if n.label in ("start", "end") else np.int64(n.label))
              for n in built.nodes),
        tuple(Edge(e.src, e.dst, e.log_weight, None if e.state is None else np.int64(e.state))
              for e in built.edges),
        built.num_states, built.vocab_size,
    )
    assert lat == built
    assert all(type(n.label) is int for n in lat.nodes if n.emitting)
    assert all(type(e.state) is int for e in lat.edges if e.state is not None)
    assert validate(lat) == []
    post = PosteriorTensor(np.random.default_rng(0).normal(size=(3, 2, 2)))
    assert log_marginal(lat, post) == log_marginal(built, post)


@pytest.mark.parametrize("weight, token", [(math.inf, "Infinity"), (math.nan, "NaN")])
def test_deserialize_rejects_nan_and_positive_infinite_weight(weight, token):
    doc = json.loads(serialize(build_monornnt_graph(TopologySpec(MONO_RNNT, (1, 2), 3))))
    doc["edges"][2]["logw"] = weight
    text = json.dumps(doc)
    assert f'"logw": {token}' in text
    with pytest.raises(LatticeFormatError) as info:
        deserialize(text)
    assert info.value.where == "edges[2].logw"


def test_deserialize_rejects_an_integer_weight_too_large_for_a_float():
    text = serialize(build_ctc_like_graph(TopologySpec(CTC_LIKE, (1,), 2)))
    text = text.replace('"logw": 0.0', f'"logw": {-10**400}', 1)
    with pytest.raises(LatticeFormatError, match="too large for a float") as info:
        deserialize(text)
    assert info.value.where == "edges[0].logw"


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("states",), True, "states"),
        (("vocab",), True, "vocab"),
        (("nodes", 1, "id"), True, "nodes[1].id"),
        (("edges", 0, "to"), False, "edges[0].to"),
        (("edges", 0, "state"), 3, "edges[0].state"),  # the lattice declares 3 states
        (("edges", 0, "state"), -1, "edges[0].state"),  # reported here, not by Edge
        (("nodes", 1, "label"), -1, "nodes[1].label"),  # reported here, not by Node
    ],
)
def test_deserialize_rejects_bools_and_undeclared_states(path, value, where):
    doc = json.loads(serialize(build_monornnt_graph(TopologySpec(MONO_RNNT, (1, 2), 3))))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(LatticeFormatError) as info:
        deserialize(json.dumps(doc))
    assert info.value.where == where


def test_deserialize_rejects_what_validate_rejects():
    doc = json.loads(serialize(build_ctc_like_graph(TopologySpec(CTC_LIKE, (1,), 2))))
    doc["edges"][0]["state"] = None  # an emitting edge without a decoder state
    with pytest.raises(LatticeFormatError, match="end-edge") as info:
        deserialize(json.dumps(doc))
    assert info.value.where == "lattice"


FUZZ_BASES = [
    serialize(build_lattice(TopologySpec(kind, labels, 3)))
    for kind in (CTC_LIKE, MONO_RNNT)
    for labels in ((1,), (1, 2), (2, 2))
]
FUZZ_JUNK = [None, "x", "blank", "start", "end", [], {}, True, 1.5, -1, 0, 2**40]


@st.composite
def mutated_lattice_text(draw):
    """serialize output with one to four keys dropped, retyped, or given a
    new index or weight, anywhere in the document."""
    doc = json.loads(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 4))):
        target = doc
        part = draw(st.sampled_from(["nodes", "edges", None]))
        items = doc.get(part)
        if isinstance(items, list) and items:
            target = items[draw(st.integers(0, len(items) - 1))]
        if not isinstance(target, dict) or not target:
            continue
        key = draw(st.sampled_from(sorted(target)))
        change = draw(st.sampled_from(["drop", "retype", "index", "weight"]))
        if change == "drop":
            del target[key]
        elif change == "retype":
            target[key] = draw(st.sampled_from(FUZZ_JUNK))
        elif change == "index":
            target[key] = draw(st.integers(-2, 12))
        else:
            target[key] = draw(st.floats())
    return json.dumps(doc)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(text=mutated_lattice_text(), frames=st.integers(1, 6))
def test_deserialize_fuzz_yields_format_error_or_scorable_lattice(text, frames):
    try:
        lat = deserialize(text)
    except LatticeFormatError:
        return
    # a tensor just large enough for the states and labels the edges use
    states = 1 + max((e.state for e in lat.edges if e.state is not None), default=0)
    vocab = 1 + max((n.label for n in lat.nodes if isinstance(n.label, int)), default=0)
    post = PosteriorTensor(np.zeros((frames, states, max(vocab, 2))))
    try:
        assert math.isfinite(log_marginal(lat, post))
    except InfeasibleLengthError:
        pass


def test_dot_output_shape():
    lat = build_ctc_like_graph(TopologySpec(CTC_LIKE, (1, 2), 3))
    dot = to_dot(lat)
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")
    assert dot.count("->") == len(lat.edges)
    for n in lat.nodes:
        assert f"n{n.id} [" in dot


def test_min_emissions():
    assert build_ctc_like_graph(TopologySpec(CTC_LIKE, (1, 2), 3)).min_emissions == 2
    assert build_ctc_like_graph(TopologySpec(CTC_LIKE, (1, 1), 2)).min_emissions == 3
    assert build_monornnt_graph(TopologySpec(MONO_RNNT, (1, 1), 2)).min_emissions == 2
    assert build_ctc_like_graph(TopologySpec(CTC_LIKE, (), 2)).min_emissions == 1
    # only the unreachable node 2 has an edge into the end node
    cut = tiny(
        [Node(0, "start"), Node(1, 1), Node(2, 1), Node(3, "end")],
        [Edge(0, 1, 0.0, 0), Edge(2, 3, 0.0, None)],
    )
    with pytest.raises(ValueError, match="end node is unreachable from start"):
        cut.min_emissions
