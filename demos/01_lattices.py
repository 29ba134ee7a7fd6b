"""Build the two training lattice topologies and look at their structure."""

from graphtransducer import (
    CTC_LIKE,
    MONO_RNNT,
    TopologySpec,
    build_lattice,
    deserialize,
    serialize,
    to_dot,
    validate,
)

# A lattice encodes every way a label sequence can be stretched over the
# input frames.  Build both topologies for the sequence (1, 2) with a
# three-symbol vocabulary (blank is always label 0).
ctc = build_lattice(TopologySpec(CTC_LIKE, (1, 2), vocab_size=3))
mono = build_lattice(TopologySpec(MONO_RNNT, (1, 2), vocab_size=3))

print("ctc-like:", len(ctc.nodes), "nodes,", len(ctc.edges), "edges")
print("mono-rnnt:", len(mono.nodes), "nodes,", len(mono.edges), "edges")

# Nodes alternate blanks and labels; edges carry the decoder state that
# scores the emission at their target.
for node in ctc.nodes:
    outgoing = [(e.dst, e.state) for e in ctc.edges if e.src == node.id]
    print(f"  node {node.id} ({node.label!r:>7}) -> {outgoing}")

# build_lattice, the one builder, reads the topology from the spec's kind.
# Its lattices always satisfy the well-formedness rules: determinism, one
# decoder state per node's outgoing edges, BFS id order, reachability.
print("ctc violations:", validate(ctc))
print("mono violations:", validate(mono))

# The difference between the topologies shows up with repeated labels:
# ctc-like removes the direct step between equal labels (the blank becomes
# mandatory) while mono-rnnt removes label self-loops instead.
ctc_rep = build_lattice(TopologySpec(CTC_LIKE, (1, 1), vocab_size=2))
mono_rep = build_lattice(TopologySpec(MONO_RNNT, (1, 1), vocab_size=2))
print("ctc (1,1) edges:", sorted((e.src, e.dst) for e in ctc_rep.edges))
print("mono (1,1) edges:", sorted((e.src, e.dst) for e in mono_rep.edges))

# Lattices round-trip through a JSON text format and render as DOT.
assert deserialize(serialize(ctc)) == ctc
print(to_dot(ctc_rep))
