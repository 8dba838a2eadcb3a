"""Graph statistics and structural hashing of data-flow graphs.

Two consumers need a compact, comparable view of a DFG:

* The pass manager (:mod:`repro.core.passes`) snapshots
  :class:`GraphStats` before and after every pass to report per-pass
  node/edge deltas and op-type histogram changes.
* The compile cache keys on :func:`structural_hash`, a stable digest of
  the graph *structure* (node kinds, op types, edges, outputs) so that
  recompiling a structurally identical DAG with the same target and
  configuration can reuse the previous result.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.dfg.graph import DataFlowGraph


@dataclass(frozen=True)
class GraphStats:
    """Size snapshot of one DFG: node/edge counts and the op histogram."""

    operands: int
    ops: int
    edges: int
    #: op-type value -> number of op nodes of that type
    op_histogram: dict[str, int] = field(default_factory=dict)

    @property
    def nodes(self) -> int:
        """Total node count of the bipartite graph (operands + ops)."""
        return self.operands + self.ops

    def delta(self, other: "GraphStats") -> "GraphStats":
        """Per-field difference ``other - self`` (after minus before)."""
        hist = {}
        for key in set(self.op_histogram) | set(other.op_histogram):
            diff = other.op_histogram.get(key, 0) - self.op_histogram.get(key, 0)
            if diff:
                hist[key] = diff
        return GraphStats(
            operands=other.operands - self.operands,
            ops=other.ops - self.ops,
            edges=other.edges - self.edges,
            op_histogram=hist,
        )


def graph_stats(dag: DataFlowGraph) -> GraphStats:
    """Collect a :class:`GraphStats` snapshot of the graph.

    O(op types): the graph keeps its histogram and edge count current.
    """
    histogram = {op.value: count for op, count in dag.op_histogram().items()}
    return GraphStats(
        operands=dag.num_operands,
        ops=dag.num_ops,
        edges=dag.num_edges,
        op_histogram=dict(sorted(histogram.items())),
    )


def structural_hash(dag: DataFlowGraph) -> str:
    """A stable hex digest of the graph structure.

    Covers operand kinds/names/constants, op types and their operand and
    result wiring, and the named outputs — everything that determines what
    the compiler will do with the graph.  The graph's display ``name`` is
    deliberately excluded so renamed copies of the same DAG hash equal.
    """
    hasher = hashlib.sha256()
    for operand in sorted(dag.operand_nodes(), key=lambda o: o.node_id):
        hasher.update(
            f"o|{operand.node_id}|{operand.kind.value}|{operand.name}"
            f"|{operand.const_value}\n".encode())
    for node in sorted(dag.op_nodes(), key=lambda n: n.node_id):
        operands = ",".join(map(str, node.operands))
        hasher.update(
            f"p|{node.node_id}|{node.op.value}|{operands}|{node.result}\n"
            .encode())
    for name in sorted(dag.outputs):
        hasher.update(f"out|{name}|{dag.outputs[name]}\n".encode())
    return hasher.hexdigest()
