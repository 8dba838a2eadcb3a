"""Data-flow graph (DFG) intermediate representation.

The DFG is the bipartite DAG of Fig. 3b in the paper: *operand* nodes (the
orange nodes — program inputs, constants and intermediate results) alternate
with *operation* nodes (the blue nodes — bulk-bitwise logic ops).  Operation
nodes carry unit weight, operand nodes and edges carry zero weight; the
b-level of an operation node is its scheduling priority (Sec. 3.1).

Node identifiers are small integers unique within one graph.  Every op node
produces exactly one operand node (its result); an operand node is produced
by at most one op node and consumed by any number of op nodes.

Mutate a graph only through its methods.  Every mutator bumps the graph's
:attr:`~DataFlowGraph.version`; the topological order and a successful
:meth:`~DataFlowGraph.validate` are memoized against it, and the op
histogram, edge count and input-name index are kept up to date as the
graph changes, so the pass manager's per-pass statistics cost O(op types).
A node object handed out by :meth:`~DataFlowGraph.op` or
:meth:`~DataFlowGraph.operand` must be treated as read-only.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

from repro.dfg.ops import OpType, check_arity
from repro.errors import GraphError


class OperandKind(enum.Enum):
    """What an operand node represents."""

    INPUT = "input"
    CONST = "const"
    INTERMEDIATE = "intermediate"


@dataclass(slots=True)
class OperandNode:
    """An orange node: a bulk bit-vector living in (or bound for) the array."""

    node_id: int
    kind: OperandKind
    name: str | None = None
    const_value: int | None = None  # 0 or 1, broadcast over all lanes
    producer: int | None = None  # op node id, None for inputs/consts

    @property
    def is_source(self) -> bool:
        """Whether this operand is a DAG input/constant (no producer op)."""
        return self.producer is None


@dataclass(slots=True)
class OpNode:
    """A blue node: one column-wise scouting-logic operation."""

    node_id: int
    op: OpType
    operands: tuple[int, ...]
    result: int

    @property
    def arity(self) -> int:
        """Number of input operands this op consumes."""
        return len(self.operands)


class DataFlowGraph:
    """Mutable bipartite DAG of operands and bulk-bitwise operations."""

    def __init__(self, name: str = "dfg") -> None:
        self.name = name
        self._next_id = 0
        self._operands: dict[int, OperandNode] = {}
        self._ops: dict[int, OpNode] = {}
        self._consumers: dict[int, list[int]] = {}  # operand id -> op ids
        self._outputs: dict[str, int] = {}  # output name -> operand id
        self._input_ids: dict[str, int] = {}  # input name -> operand id
        self._histogram: dict[OpType, int] = {}  # op type -> op count
        self._edges = 0
        self._version = 0
        self._topo: list[int] = []
        self._topo_at = -1  # version self._topo was computed at
        self._valid_at = -1  # version of the last successful validate()

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every mutator, memo key of the
        topological order and of :meth:`validate`."""
        return self._version

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def add_input(self, name: str) -> int:
        """Add a program input and return its operand node id."""
        if name in self._input_ids:
            raise GraphError(f"duplicate input name {name!r}")
        self._version += 1
        nid = self._new_id()
        self._operands[nid] = OperandNode(nid, OperandKind.INPUT, name=name)
        self._consumers[nid] = []
        self._input_ids[name] = nid
        return nid

    def add_const(self, value: int, name: str | None = None) -> int:
        """Add a constant operand (``0`` or ``1``, broadcast over lanes)."""
        if value not in (0, 1):
            raise GraphError(f"constant must be 0 or 1, got {value!r}")
        self._version += 1
        nid = self._new_id()
        self._operands[nid] = OperandNode(nid, OperandKind.CONST, name=name, const_value=value)
        self._consumers[nid] = []
        return nid

    def add_op(self, op: OpType, operands: Sequence[int]) -> int:
        """Add an operation node; return the id of its result operand."""
        check_arity(op, len(operands))
        for oid in operands:
            if oid not in self._operands:
                raise GraphError(f"operand node {oid} does not exist")
        self._version += 1
        op_id = self._new_id()
        res_id = self._new_id()
        self._operands[res_id] = OperandNode(res_id, OperandKind.INTERMEDIATE, producer=op_id)
        self._consumers[res_id] = []
        node = OpNode(op_id, op, tuple(operands), res_id)
        self._ops[op_id] = node
        for oid in operands:
            self._consumers[oid].append(op_id)
        self._count(op, 1)
        self._edges += len(operands) + 1
        return res_id

    def _count(self, op: OpType, delta: int) -> None:
        count = self._histogram.get(op, 0) + delta
        if count:
            self._histogram[op] = count
        else:
            del self._histogram[op]

    def mark_output(self, operand_id: int, name: str) -> None:
        """Declare an operand node as a program output."""
        if operand_id not in self._operands:
            raise GraphError(f"operand node {operand_id} does not exist")
        if name in self._outputs:
            raise GraphError(f"duplicate output name {name!r}")
        self._version += 1
        self._outputs[name] = operand_id

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def outputs(self) -> dict[str, int]:
        """Output name -> operand node id (a defensive copy)."""
        return dict(self._outputs)

    def inputs(self) -> list[OperandNode]:
        """All declared input operand nodes, in declaration order."""
        return [self._operands[oid] for oid in self._input_ids.values()]

    def operand(self, operand_id: int) -> OperandNode:
        """Look up an operand node by id."""
        try:
            return self._operands[operand_id]
        except KeyError:
            raise GraphError(f"operand node {operand_id} does not exist") from None

    def op(self, op_id: int) -> OpNode:
        """Look up an op node by id."""
        try:
            return self._ops[op_id]
        except KeyError:
            raise GraphError(f"op node {op_id} does not exist") from None

    def operand_nodes(self) -> Iterator[OperandNode]:
        """Iterate over all operand nodes (snapshot)."""
        return iter(list(self._operands.values()))

    def op_nodes(self) -> Iterator[OpNode]:
        """Iterate over all op nodes (snapshot)."""
        return iter(list(self._ops.values()))

    @property
    def num_operands(self) -> int:
        """Number of operand nodes in the graph."""
        return len(self._operands)

    @property
    def num_ops(self) -> int:
        """Number of op nodes in the graph."""
        return len(self._ops)

    @property
    def num_edges(self) -> int:
        """Number of edges of the bipartite graph (operand->op, op->result)."""
        return self._edges

    def consumers(self, operand_id: int) -> list[int]:
        """Op node ids that read the given operand."""
        try:
            return list(self._consumers[operand_id])
        except KeyError:
            raise GraphError(f"operand node {operand_id} does not exist") from None

    def pred_ops(self, op_id: int) -> list[int]:
        """Op nodes whose results feed the given op (the DAG predecessors)."""
        node = self.op(op_id)
        preds = []
        for oid in node.operands:
            producer = self._operands[oid].producer
            if producer is not None:
                preds.append(producer)
        return preds

    def succ_ops(self, op_id: int) -> list[int]:
        """Op nodes that consume the given op's result."""
        return list(self._consumers[self.op(op_id).result])

    # ------------------------------------------------------------------
    # mutation (used by the DAG transforms of Sec. 3.3.3)
    # ------------------------------------------------------------------
    def replace_op(self, op_id: int, op: OpType | None = None,
                   operands: Sequence[int] | None = None) -> None:
        """Rewrite an op node's type and/or operand list in place."""
        node = self.op(op_id)
        new_op = node.op if op is None else op
        new_operands = node.operands if operands is None else tuple(operands)
        check_arity(new_op, len(new_operands))
        for oid in new_operands:
            if oid not in self._operands:
                raise GraphError(f"operand node {oid} does not exist")
        self._version += 1
        for oid in node.operands:
            self._consumers[oid].remove(op_id)
        for oid in new_operands:
            self._consumers[oid].append(op_id)
        if new_op is not node.op:
            self._count(node.op, -1)
            self._count(new_op, 1)
        self._edges += len(new_operands) - len(node.operands)
        node.op = new_op
        node.operands = new_operands

    def delete_op(self, op_id: int) -> None:
        """Remove an op node and its (necessarily unused) result operand."""
        node = self.op(op_id)
        if self._consumers[node.result]:
            raise GraphError(f"cannot delete op {op_id}: result still consumed")
        if node.result in self._outputs.values():
            raise GraphError(f"cannot delete op {op_id}: result is an output")
        self._version += 1
        for oid in node.operands:
            self._consumers[oid].remove(op_id)
        del self._consumers[node.result]
        del self._operands[node.result]
        del self._ops[op_id]
        self._count(node.op, -1)
        self._edges -= node.arity + 1

    def replace_uses(self, old_operand: int, new_operand: int) -> None:
        """Redirect every consumer and output of one operand to another."""
        self.operand(old_operand)
        self.operand(new_operand)
        if old_operand == new_operand:
            return
        for consumer_id in list(self._consumers[old_operand]):
            node = self._ops[consumer_id]
            self.replace_op(consumer_id, operands=[
                new_operand if oid == old_operand else oid
                for oid in node.operands])
        for name, oid in list(self._outputs.items()):
            if oid == old_operand:
                self._version += 1
                self._outputs[name] = new_operand

    def delete_operand(self, operand_id: int) -> None:
        """Remove an unused, unproduced operand node (dead input/const)."""
        node = self.operand(operand_id)
        if self._consumers[operand_id]:
            raise GraphError(f"cannot delete operand {operand_id}: still consumed")
        if node.producer is not None:
            raise GraphError(f"cannot delete operand {operand_id}: delete its op instead")
        if operand_id in self._outputs.values():
            raise GraphError(f"cannot delete operand {operand_id}: it is an output")
        self._version += 1
        del self._consumers[operand_id]
        del self._operands[operand_id]
        if node.kind is OperandKind.INPUT:
            del self._input_ids[node.name]

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def topological_ops(self) -> list[int]:
        """Op node ids in a producer-before-consumer order (Kahn).

        Memoized against :attr:`version`; every call returns a fresh list.
        """
        if self._topo_at != self._version:
            self._topo = self._kahn()
            self._topo_at = self._version
        return list(self._topo)

    def _kahn(self) -> list[int]:
        operands, ops, consumers = self._operands, self._ops, self._consumers
        indeg = {op_id: sum(1 for oid in node.operands
                            if operands[oid].producer is not None)
                 for op_id, node in ops.items()}
        ready = sorted(op_id for op_id, d in indeg.items() if d == 0)
        order: list[int] = []
        while ready:
            op_id = ready.pop()
            order.append(op_id)
            for succ in consumers[ops[op_id].result]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(ops):
            raise GraphError("data-flow graph contains a cycle")
        return order

    def validate(self) -> None:
        """Check the bipartite-DAG invariants; raise :class:`GraphError`.

        A success is memoized against :attr:`version`: revalidating an
        unchanged graph is free.
        """
        if self._valid_at == self._version:
            return
        for op_id, node in self._ops.items():
            check_arity(node.op, node.arity)
            for oid in node.operands:
                if oid not in self._operands:
                    raise GraphError(f"op {op_id} reads unknown operand {oid}")
                if op_id not in self._consumers[oid]:
                    raise GraphError(f"consumer list of {oid} is missing op {op_id}")
            result = self._operands.get(node.result)
            if result is None or result.producer != op_id:
                raise GraphError(f"op {op_id} has a dangling result link")
        for oid, operand in self._operands.items():
            if operand.producer is not None and operand.producer not in self._ops:
                raise GraphError(f"operand {oid} produced by unknown op {operand.producer}")
            if operand.kind is OperandKind.CONST and operand.const_value not in (0, 1):
                raise GraphError(f"constant operand {oid} has bad value")
        for name, oid in self._outputs.items():
            if oid not in self._operands:
                raise GraphError(f"output {name!r} refers to unknown operand {oid}")
        self.topological_ops()  # raises on cycles
        self._valid_at = self._version

    def live_nodes(self) -> tuple[set[int], set[int]]:
        """Operand and op node ids reachable backwards from the outputs."""
        live_operands: set[int] = set()
        live_ops: set[int] = set()
        stack = list(self._outputs.values())
        while stack:
            oid = stack.pop()
            if oid in live_operands:
                continue
            live_operands.add(oid)
            producer = self._operands[oid].producer
            if producer is not None and producer not in live_ops:
                live_ops.add(producer)
                stack.extend(self._ops[producer].operands)
        return live_operands, live_ops

    def copy(self, name: str | None = None) -> "DataFlowGraph":
        """Deep copy of the graph, preserving node ids."""
        g = DataFlowGraph(name or self.name)
        g._next_id = self._next_id
        g._operands = {
            oid: OperandNode(o.node_id, o.kind, o.name, o.const_value, o.producer)
            for oid, o in self._operands.items()
        }
        g._ops = {
            op_id: OpNode(n.node_id, n.op, n.operands, n.result)
            for op_id, n in self._ops.items()
        }
        g._consumers = {oid: list(c) for oid, c in self._consumers.items()}
        g._outputs = dict(self._outputs)
        g._input_ids = dict(self._input_ids)
        g._histogram = dict(self._histogram)
        g._edges = self._edges
        # the copy has the same ids and insertion orders, so the same
        # topological order; the (never mutated) list can be shared
        if self._topo_at == self._version:
            g._topo, g._topo_at = self._topo, g._version
        if self._valid_at == self._version:
            g._valid_at = g._version
        return g

    def op_histogram(self) -> dict[OpType, int]:
        """Count op nodes per operation type."""
        return dict(self._histogram)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"DataFlowGraph({self.name!r}, operands={len(self._operands)}, "
                f"ops={len(self._ops)}, outputs={len(self._outputs)})")


def input_ids(dag: DataFlowGraph) -> dict[str, int]:
    """Map input names to operand node ids."""
    return {o.name: o.node_id for o in dag.inputs()}


def iter_edges(dag: DataFlowGraph) -> Iterable[tuple[int, int]]:
    """All (src, dst) node-id edges of the bipartite graph."""
    for node in dag.op_nodes():
        for oid in node.operands:
            yield (oid, node.node_id)
        yield (node.node_id, node.result)
