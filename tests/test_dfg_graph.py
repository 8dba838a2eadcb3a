"""Unit tests for the data-flow graph IR."""

import random
from collections import Counter

import pytest

from repro.dfg import (
    DataFlowGraph,
    DFGBuilder,
    OperandKind,
    OpType,
    blevel_order,
    compute_blevels,
    critical_path_length,
    evaluate,
    graph_stats,
    to_dot,
)
from repro.dfg.graph import input_ids, iter_edges
from repro.dfg.stats import GraphStats
from repro.errors import GraphError


def make_simple() -> DataFlowGraph:
    """(a & b) ^ c with the XOR result as output."""
    dag = DataFlowGraph("simple")
    a = dag.add_input("a")
    b = dag.add_input("b")
    c = dag.add_input("c")
    t = dag.add_op(OpType.AND, [a, b])
    r = dag.add_op(OpType.XOR, [t, c])
    dag.mark_output(r, "r")
    return dag


class TestConstruction:
    def test_add_input_creates_operand(self):
        dag = DataFlowGraph()
        a = dag.add_input("a")
        node = dag.operand(a)
        assert node.kind is OperandKind.INPUT
        assert node.name == "a"
        assert node.is_source

    def test_duplicate_input_rejected(self):
        dag = DataFlowGraph()
        dag.add_input("a")
        with pytest.raises(GraphError):
            dag.add_input("a")

    def test_const_values_restricted(self):
        dag = DataFlowGraph()
        dag.add_const(0)
        dag.add_const(1)
        with pytest.raises(GraphError):
            dag.add_const(2)

    def test_add_op_returns_result_operand(self):
        dag = make_simple()
        assert dag.num_ops == 2
        # inputs + two results
        assert dag.num_operands == 5

    def test_op_arity_checked(self):
        dag = DataFlowGraph()
        a = dag.add_input("a")
        with pytest.raises(GraphError):
            dag.add_op(OpType.AND, [a])
        with pytest.raises(GraphError):
            dag.add_op(OpType.NOT, [a, a])

    def test_unknown_operand_rejected(self):
        dag = DataFlowGraph()
        a = dag.add_input("a")
        with pytest.raises(GraphError):
            dag.add_op(OpType.AND, [a, 999])

    def test_duplicate_output_name_rejected(self):
        dag = make_simple()
        out = next(iter(dag.outputs.values()))
        with pytest.raises(GraphError):
            dag.mark_output(out, "r")

    def test_validate_passes_on_wellformed(self):
        make_simple().validate()


class TestStructure:
    def test_pred_succ_ops(self):
        dag = make_simple()
        ops = dag.topological_ops()
        assert len(ops) == 2
        first, second = ops
        assert dag.pred_ops(first) == []
        assert dag.pred_ops(second) == [first]
        assert dag.succ_ops(first) == [second]
        assert dag.succ_ops(second) == []

    def test_topological_order_respects_deps(self):
        dag = DataFlowGraph()
        a, b = dag.add_input("a"), dag.add_input("b")
        t1 = dag.add_op(OpType.AND, [a, b])
        t2 = dag.add_op(OpType.OR, [t1, a])
        t3 = dag.add_op(OpType.XOR, [t2, t1])
        dag.mark_output(t3, "o")
        order = dag.topological_ops()
        pos = {op_id: i for i, op_id in enumerate(order)}
        for op_id in order:
            for pred in dag.pred_ops(op_id):
                assert pos[pred] < pos[op_id]

    def test_consumers_tracking(self):
        dag = DataFlowGraph()
        a, b = dag.add_input("a"), dag.add_input("b")
        t = dag.add_op(OpType.AND, [a, b])
        dag.add_op(OpType.OR, [t, a])
        dag.add_op(OpType.XOR, [t, b])
        assert len(dag.consumers(t)) == 2
        assert len(dag.consumers(a)) == 2

    def test_live_nodes_excludes_dead(self):
        dag = make_simple()
        a = input_ids(dag)["a"]
        b = input_ids(dag)["b"]
        dag.add_op(OpType.OR, [a, b])  # dead op
        live_operands, live_ops = dag.live_nodes()
        assert len(live_ops) == 2

    def test_iter_edges_count(self):
        dag = make_simple()
        # AND: 2 in + 1 out, XOR: 2 in + 1 out
        assert len(list(iter_edges(dag))) == 6

    def test_copy_is_independent(self):
        dag = make_simple()
        clone = dag.copy()
        a, b = clone.add_input("x"), clone.add_input("y")
        clone.add_op(OpType.AND, [a, b])
        assert clone.num_ops == dag.num_ops + 1
        dag.validate()
        clone.validate()

    def test_op_histogram(self):
        dag = make_simple()
        hist = dag.op_histogram()
        assert hist[OpType.AND] == 1
        assert hist[OpType.XOR] == 1


class TestMutation:
    def test_replace_op_updates_consumers(self):
        dag = DataFlowGraph()
        a, b, c = dag.add_input("a"), dag.add_input("b"), dag.add_input("c")
        t = dag.add_op(OpType.AND, [a, b])
        dag.mark_output(t, "o")
        producer = dag.operand(t).producer
        dag.replace_op(producer, operands=[a, b, c])
        assert dag.op(producer).arity == 3
        assert producer in dag.consumers(c)
        dag.validate()

    def test_delete_op_with_consumer_rejected(self):
        dag = make_simple()
        first = dag.topological_ops()[0]
        with pytest.raises(GraphError):
            dag.delete_op(first)

    def test_delete_op_removes_result(self):
        dag = DataFlowGraph()
        a, b = dag.add_input("a"), dag.add_input("b")
        t = dag.add_op(OpType.AND, [a, b])
        op_id = dag.operand(t).producer
        dag.delete_op(op_id)
        assert dag.num_ops == 0
        with pytest.raises(GraphError):
            dag.operand(t)

    def test_delete_output_op_rejected(self):
        dag = DataFlowGraph()
        a, b = dag.add_input("a"), dag.add_input("b")
        t = dag.add_op(OpType.AND, [a, b])
        dag.mark_output(t, "o")
        with pytest.raises(GraphError):
            dag.delete_op(dag.operand(t).producer)


# ----------------------------------------------------------------------
# memoized facts vs a graph recomputed from scratch
# ----------------------------------------------------------------------
def _reference_topological_ops(dag):
    """Kahn's algorithm over the public accessors, nothing memoized."""
    ops = [node.node_id for node in dag.op_nodes()]
    indeg = {op_id: len(dag.pred_ops(op_id)) for op_id in ops}
    ready = sorted(op_id for op_id, d in indeg.items() if d == 0)
    order = []
    while ready:
        op_id = ready.pop()
        order.append(op_id)
        for succ in dag.succ_ops(op_id):
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
    return order if len(order) == len(ops) else None  # None: a cycle


def _reference_stats(dag):
    histogram = Counter(node.op.value for node in dag.op_nodes())
    return GraphStats(
        operands=sum(1 for _ in dag.operand_nodes()),
        ops=sum(1 for _ in dag.op_nodes()),
        edges=sum(1 for _ in iter_edges(dag)),
        op_histogram=dict(sorted(histogram.items())))


def _assert_facts_fresh(dag):
    """Every memoized or incrementally kept fact equals a recomputation."""
    want_order = _reference_topological_ops(dag)
    if want_order is None:
        with pytest.raises(GraphError, match="cycle"):
            dag.topological_ops()
        with pytest.raises(GraphError, match="cycle"):
            dag.validate()
    else:
        assert dag.topological_ops() == want_order
        dag.validate()
        dag.validate()  # the memoized success
    assert graph_stats(dag) == _reference_stats(dag)
    want_inputs = [o for o in dag.operand_nodes()
                   if o.kind is OperandKind.INPUT]
    assert dag.inputs() == want_inputs
    assert input_ids(dag) == {o.name: o.node_id for o in want_inputs}
    for operand in want_inputs:
        version = dag.version
        with pytest.raises(GraphError, match="duplicate input"):
            dag.add_input(operand.name)
        assert dag.version == version


def _descendants(dag, op_id):
    """The op and every op reading its result, transitively."""
    seen, stack = set(), [op_id]
    while stack:
        current = stack.pop()
        if current not in seen:
            seen.add(current)
            stack.extend(dag.succ_ops(current))
    return seen


def _random_operands(rng, op, pool):
    arity = 1 if op is OpType.NOT else rng.randint(2, 4)
    return [rng.choice(pool) for _ in range(arity)]


def _mutate(dag, rng, names):
    """Try one random mutation (it may not apply); returns its kind."""
    ops = [node.node_id for node in dag.op_nodes()]
    outputs = set(dag.outputs.values())
    kind = rng.choice(["add_input", "add_const", "add_op", "add_op",
                       "mark_output", "replace_op", "replace_op",
                       "make_cycle", "delete_op", "replace_uses",
                       "delete_operand"])
    if kind == "add_input":
        # re-declaring a deleted input's name must be accepted again
        name = rng.choice(sorted(names["deleted"]) or [f"i{len(names['all'])}"])
        names["deleted"].discard(name)
        names["all"].add(name)
        dag.add_input(name)
    elif kind == "add_const":
        dag.add_const(rng.randint(0, 1))
    elif kind == "add_op":
        op = rng.choice(list(OpType))
        pool = [o.node_id for o in dag.operand_nodes()]
        dag.add_op(op, _random_operands(rng, op, pool))
    elif kind == "mark_output":
        operand = rng.choice([o.node_id for o in dag.operand_nodes()])
        dag.mark_output(operand, f"o{len(dag.outputs)}")
    elif kind == "replace_op" and ops:
        op_id = rng.choice(ops)
        below = _descendants(dag, op_id)
        pool = [o.node_id for o in dag.operand_nodes()
                if o.producer not in below]
        op = rng.choice(list(OpType))
        if pool:
            dag.replace_op(op_id, op=op,
                           operands=_random_operands(rng, op, pool))
    elif kind == "make_cycle" and ops:
        # wire an op to read its own result: the cached success of an
        # earlier validate() must not survive it
        op_id = rng.choice(ops)
        node = dag.op(op_id)
        old_operands = node.operands
        dag.validate()
        dag.replace_op(op_id, operands=[node.result, *old_operands[1:]])
        _assert_facts_fresh(dag)
        dag.replace_op(op_id, operands=old_operands)
    elif kind == "delete_op":
        dead = [op_id for op_id in ops
                if not dag.consumers(dag.op(op_id).result)
                and dag.op(op_id).result not in outputs]
        if dead:
            dag.delete_op(rng.choice(dead))
    elif kind == "replace_uses":
        sources = [o.node_id for o in dag.operand_nodes() if o.is_source]
        operand = rng.choice([o.node_id for o in dag.operand_nodes()])
        if sources:
            dag.replace_uses(operand, rng.choice(sources))
    elif kind == "delete_operand":
        dead = [o for o in dag.operand_nodes()
                if o.is_source and not dag.consumers(o.node_id)
                and o.node_id not in outputs]
        if dead:
            victim = rng.choice(dead)
            if victim.kind is OperandKind.INPUT:
                names["deleted"].add(victim.name)
            dag.delete_operand(victim.node_id)
    return kind


class TestMemoizedFacts:
    """Seeded random mutations: memoized facts never go stale."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_mutations_keep_every_fact_fresh(self, seed):
        rng = random.Random(seed)
        dag = DataFlowGraph("random")
        names = {"all": set(), "deleted": set()}
        for i in range(3):
            names["all"].add(f"i{i}")
            dag.add_input(f"i{i}")
        seen = set()
        graphs = [dag]
        for _ in range(150):
            dag = graphs[-1]
            before = [(g, g.topological_ops(), graph_stats(g))
                      for g in graphs[:-1]]
            version = dag.version
            kind = _mutate(dag, rng, names)
            if dag.version != version:
                seen.add(kind)
            if rng.random() < 0.15:
                # copy before anything re-warms the mutated graph's memo
                graphs = [dag, dag.copy()]
                seen.add("copy")
            for graph in graphs:
                _assert_facts_fresh(graph)
            # mutating a copy leaves its original (and its memo) alone
            for graph, order, stats in before:
                assert graph.topological_ops() == order
                assert graph_stats(graph) == stats
        assert len(seen) == 10  # every mutation kind, plus copy()

    def test_every_mutator_bumps_the_version(self):
        dag = make_simple()
        a, c = input_ids(dag)["a"], input_ids(dag)["c"]
        and_id = dag.topological_ops()[0]
        dead_op = dag.operand(dag.add_op(OpType.NOT, [c])).producer
        dead_const = dag.add_const(0)
        steps = [
            lambda: dag.add_input("z"),
            lambda: dag.add_const(1),
            lambda: dag.add_op(OpType.OR, [a, c]),
            lambda: dag.mark_output(a, "alias"),
            lambda: dag.replace_op(and_id, op=OpType.NAND),
            lambda: dag.delete_op(dead_op),
            lambda: dag.delete_operand(dead_const),
            lambda: dag.replace_uses(a, c),
        ]
        for step in steps:
            version = dag.version
            step()
            assert dag.version > version

    def test_cycle_after_cached_success_still_raises(self):
        dag = make_simple()
        dag.validate()
        first, second = dag.topological_ops()
        # the AND now reads the XOR's result, which reads the AND's
        xor_result = dag.op(second).result
        dag.replace_op(first, operands=[xor_result, input_ids(dag)["b"]])
        with pytest.raises(GraphError, match="cycle"):
            dag.validate()
        with pytest.raises(GraphError, match="cycle"):
            dag.topological_ops()


class TestBLevel:
    def test_single_chain(self):
        dag = DataFlowGraph()
        a, b = dag.add_input("a"), dag.add_input("b")
        t1 = dag.add_op(OpType.AND, [a, b])
        t2 = dag.add_op(OpType.OR, [t1, b])
        t3 = dag.add_op(OpType.XOR, [t2, a])
        dag.mark_output(t3, "o")
        levels = compute_blevels(dag)
        order = dag.topological_ops()
        assert [levels[o] for o in order] == [3, 2, 1]
        assert critical_path_length(dag) == 3

    def test_blevel_order_is_topological(self):
        dag = DataFlowGraph()
        a, b, c, d = (dag.add_input(n) for n in "abcd")
        t1 = dag.add_op(OpType.AND, [a, b])
        t2 = dag.add_op(OpType.OR, [c, d])
        t3 = dag.add_op(OpType.XOR, [t1, t2])
        dag.mark_output(t3, "o")
        order = blevel_order(dag)
        pos = {op_id: i for i, op_id in enumerate(order)}
        for op_id in order:
            for pred in dag.pred_ops(op_id):
                assert pos[pred] < pos[op_id]

    def test_exit_node_has_blevel_one(self):
        dag = make_simple()
        levels = compute_blevels(dag)
        assert min(levels.values()) == 1


class TestEvaluate:
    def test_and_xor(self):
        dag = make_simple()
        out = evaluate(dag, {"a": 0b1100, "b": 0b1010, "c": 0b1111}, lanes=4)
        assert out["r"] == (0b1100 & 0b1010) ^ 0b1111

    def test_not_masks_to_lanes(self):
        b = DFGBuilder()
        a = b.input("a")
        b.output("o", ~a)
        out = evaluate(b.build(), {"a": 0b0101}, lanes=4)
        assert out["o"] == 0b1010

    def test_const_broadcast(self):
        b = DFGBuilder()
        a = b.input("a")
        one = b.const(1)
        b.output("o", a ^ one)
        out = evaluate(b.build(), {"a": 0b0011}, lanes=4)
        assert out["o"] == 0b1100

    def test_missing_input_rejected(self):
        dag = make_simple()
        with pytest.raises(GraphError):
            evaluate(dag, {"a": 0, "b": 0}, lanes=4)

    def test_unknown_input_rejected(self):
        dag = make_simple()
        with pytest.raises(GraphError):
            evaluate(dag, {"a": 0, "b": 0, "c": 0, "zz": 1}, lanes=4)

    def test_oversized_input_rejected(self):
        dag = make_simple()
        with pytest.raises(GraphError):
            evaluate(dag, {"a": 16, "b": 0, "c": 0}, lanes=4)

    @pytest.mark.parametrize("op,expected", [
        (OpType.AND, 0b1000),
        (OpType.OR, 0b1110),
        (OpType.XOR, 0b0110),
        (OpType.NAND, 0b0111),
        (OpType.NOR, 0b0001),
        (OpType.XNOR, 0b1001),
    ])
    def test_all_binary_ops(self, op, expected):
        b = DFGBuilder()
        x, y = b.inputs("x", "y")
        b.output("o", b.op(op, [x, y]))
        out = evaluate(b.build(), {"x": 0b1100, "y": 0b1010}, lanes=4)
        assert out["o"] == expected

    @pytest.mark.parametrize("op,expected", [
        (OpType.AND, 0b1000 & 0b0110),
        (OpType.OR, 0b1100 | 0b1010 | 0b0110),
        (OpType.XOR, 0b1100 ^ 0b1010 ^ 0b0110),
    ])
    def test_multi_operand_ops(self, op, expected):
        b = DFGBuilder()
        x, y, z = b.inputs("x", "y", "z")
        b.output("o", b.op(op, [x, y, z]))
        out = evaluate(b.build(), {"x": 0b1100, "y": 0b1010, "z": 0b0110}, lanes=4)
        assert out["o"] == expected


class TestBuilder:
    def test_operator_overloads(self):
        b = DFGBuilder("maj")
        x, y, z = b.inputs("x", "y", "z")
        b.output("maj", (x & y) | (x & z) | (y & z))
        dag = b.build()
        out = evaluate(dag, {"x": 0b1100, "y": 0b1010, "z": 0b0110}, lanes=4)
        assert out["maj"] == 0b1110

    def test_build_requires_output(self):
        b = DFGBuilder()
        b.input("a")
        with pytest.raises(GraphError):
            b.build()

    def test_cross_builder_rejected(self):
        b1, b2 = DFGBuilder(), DFGBuilder()
        a = b1.input("a")
        c = b2.input("c")
        with pytest.raises(GraphError):
            b1.and_(a, c)

    def test_named_helpers(self):
        b = DFGBuilder()
        x, y = b.inputs("x", "y")
        b.output("a", b.nand(x, y))
        b.output("b", b.nor(x, y))
        b.output("c", b.xnor(x, y))
        b.output("d", b.not_(x))
        out = evaluate(b.build(), {"x": 0b1100, "y": 0b1010}, lanes=4)
        assert out == {"a": 0b0111, "b": 0b0001, "c": 0b1001, "d": 0b0011}


class TestDot:
    def test_dot_contains_all_nodes(self):
        dag = make_simple()
        dot = to_dot(dag)
        assert dot.count("shape=box") == 2
        assert dot.count("shape=ellipse") == 5
        assert "digraph" in dot
        assert "b=2" in dot  # b-level annotation of the AND
