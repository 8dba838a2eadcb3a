"""DAG op-node clustering (Sec. 3.3.1, the core of Algorithm 2).

Each cluster becomes one CIM column, so the clustering objective is to keep
dependent ops together (intra-cluster dependencies are free; cross-cluster
dependencies cost gather moves) while keeping every cluster's memory
*footprint* — the result cells of its ops plus the externally produced
operands that must be copied into its column — within the column height.

Nodes are visited in descending b-level order.  A node without predecessors
opens a new cluster.  Otherwise the five cases of Fig. 5 apply; all of them
are instances of the assignment score of Eq. 1:

    score(d, C) = α · Σ_{q ∈ pred(d) ∩ C} ρ(d, q)  −  β · |C|

with ρ(d, q) = 1 / (b(q) − b(d)): more predecessors in a cluster and
smaller priority differences (the node extends that cluster's critical
path) raise the score — cases 3 and 4 — while β penalizes large clusters to
balance load — case 5.  Case 2's special "merge equal-sized predecessor
clusters" rule is applied before scoring.  Finally, clusters are greedily
merged down toward ``k`` (the column budget), preferring pairs with the
most inter-cluster dependencies (Sec. 3.3.1, MergeClusters).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from repro.dfg.blevel import compute_blevels
from repro.dfg.graph import DataFlowGraph
from repro.errors import MappingError


@dataclass
class Cluster:
    """A set of op nodes bound for one CIM column."""

    cluster_id: int
    ops: list[int] = field(default_factory=list)
    #: operand ids produced by ops inside the cluster
    results: set[int] = field(default_factory=set)
    #: operand ids consumed from outside (inputs or other clusters' results)
    external: set[int] = field(default_factory=set)

    @property
    def footprint(self) -> int:
        """Cells the cluster's column needs: results + gathered externals."""
        return len(self.results) + len(self.external)

    @property
    def size(self) -> int:
        """Number of ops currently in the cluster."""
        return len(self.ops)

    def addition_cost(self, result: int, operands: list[int]) -> int:
        """Extra cells needed if the op joined this cluster."""
        cost = 1  # the result cell
        for oid in operands:
            if oid not in self.results and oid not in self.external:
                cost += 1
        return cost

    def add(self, op_id: int, result: int, operands: list[int]) -> None:
        """Assign an op to the cluster, updating the footprint sets."""
        self.ops.append(op_id)
        self.results.add(result)
        for oid in operands:
            if oid not in self.results:
                self.external.add(oid)
        self.external -= self.results


def find_clusters(dag: DataFlowGraph, c_max: int, alpha: float = 1.0,
                  beta: float = 0.05) -> list[Cluster]:
    """Partition the DAG's op nodes into footprint-bounded clusters."""
    if c_max < 3:
        raise MappingError(f"column height {c_max} too small to cluster into")
    levels = compute_blevels(dag)
    order = sorted(levels, key=lambda op_id: (-levels[op_id], op_id))
    cluster_of: dict[int, Cluster] = {}
    clusters: list[Cluster] = []
    merged_away: set[int] = set()  # ids of clusters folded into another
    next_id = 0

    def new_cluster() -> Cluster:
        nonlocal next_id
        cluster = Cluster(next_id)
        next_id += 1
        clusters.append(cluster)
        return cluster

    for op_id in order:
        node = dag.op(op_id)
        operands = list(dict.fromkeys(node.operands))
        preds = dag.pred_ops(op_id)
        pred_clusters: list[Cluster] = []
        seen_ids: set[int] = set()
        for pred in preds:
            cluster = cluster_of[pred]
            if cluster.cluster_id not in seen_ids:
                seen_ids.add(cluster.cluster_id)
                pred_clusters.append(cluster)

        target_cluster: Cluster | None = None
        if not pred_clusters:
            target_cluster = new_cluster()
        else:
            if len(pred_clusters) > 1:
                sizes = {c.size for c in pred_clusters}
                if len(sizes) == 1:
                    # Case 2: equal-sized predecessor clusters merge if the
                    # union plus the new node still fits one column.
                    merged = _union_footprint(pred_clusters, node.result, operands)
                    if merged <= c_max:
                        target_cluster = _merge_into_first(pred_clusters, cluster_of)
                        merged_away.update(c.cluster_id for c in pred_clusters[1:])
            if target_cluster is None:
                target_cluster = _best_scoring(
                    pred_clusters, preds, op_id, operands, node.result,
                    levels, cluster_of, c_max, alpha, beta)
            if target_cluster is None:
                target_cluster = new_cluster()
        target_cluster.add(op_id, node.result, operands)
        cluster_of[op_id] = target_cluster
    return [c for c in clusters if c.cluster_id not in merged_away]


def _union_footprint(group: list[Cluster], result: int, operands: list[int]) -> int:
    results: set[int] = set()
    external: set[int] = set()
    for cluster in group:
        results |= cluster.results
        external |= cluster.external
    results.add(result)
    external.update(operands)
    return len(results) + len(external - results)


def _merge_into_first(group: list[Cluster], cluster_of: dict[int, Cluster]) -> Cluster:
    base = group[0]
    for other in group[1:]:
        base.ops.extend(other.ops)
        base.results |= other.results
        base.external |= other.external
        for op_id in other.ops:
            cluster_of[op_id] = base
    base.external -= base.results
    return base


def _best_scoring(pred_clusters: list[Cluster], preds: list[int], op_id: int,
                  operands: list[int], result: int, levels: dict[int, int],
                  cluster_of: dict[int, Cluster], c_max: int,
                  alpha: float, beta: float) -> Cluster | None:
    """Eq. 1 over the predecessor clusters with remaining capacity."""
    best: Cluster | None = None
    best_key: tuple[float, int, int] | None = None
    my_level = levels[op_id]
    for cluster in pred_clusters:
        cost = cluster.addition_cost(result, operands)
        if cluster.footprint + cost > c_max:
            continue
        closeness = 0.0
        for pred in preds:
            if cluster_of[pred] is cluster:
                closeness += 1.0 / (levels[pred] - my_level)
        score = alpha * closeness - beta * cluster.size
        key = (score, -cluster.size, -cluster.cluster_id)
        if best_key is None or key > best_key:
            best_key = key
            best = cluster
    return best


def merge_clusters(clusters: list[Cluster], k: int, c_max: int,
                   dag: DataFlowGraph) -> tuple[list[Cluster], int]:
    """Greedily merge clusters toward ``k``, most-dependent pairs first.

    Returns the surviving clusters and the number of merges performed.
    Merging stops early when no pair fits within the footprint bound.
    """
    if k < 1:
        raise MappingError(f"column budget k must be positive, got {k}")
    alive: dict[int, Cluster] = {c.cluster_id: c for c in clusters}
    cluster_of_op = {op_id: c.cluster_id for c in clusters for op_id in c.ops}

    # inter-cluster dependency weights as a symmetric adjacency structure,
    # so folding a merged cluster's edges is proportional to its degree
    adj: dict[int, dict[int, int]] = {cid: {} for cid in alive}
    for op_id, src in cluster_of_op.items():
        for succ in dag.succ_ops(op_id):
            dst = cluster_of_op[succ]
            if src != dst:
                adj[src][dst] = adj[src].get(dst, 0) + 1
                adj[dst][src] = adj[dst].get(src, 0) + 1

    heap: list[tuple[int, int, int, int]] = []
    for a, neighbours in adj.items():
        for b, w in neighbours.items():
            if a < b:
                fp = alive[a].footprint + alive[b].footprint
                heapq.heappush(heap, (-w, fp, a, b))

    merges = 0
    while len(alive) > k:
        merged_pair = None
        while heap:
            neg_w, fp, a, b = heapq.heappop(heap)
            if a not in alive or b not in alive:
                continue
            if adj[a].get(b, 0) != -neg_w \
                    or alive[a].footprint + alive[b].footprint != fp:
                continue  # stale entry
            if _merged_footprint(alive[a], alive[b]) <= c_max:
                merged_pair = (a, b)
                break
        if merged_pair is None:
            # no dependent pair fits; fall back to the two smallest clusters
            order = sorted(alive.values(), key=lambda c: (c.footprint, c.cluster_id))
            found = False
            for i in range(len(order)):
                for j in range(i + 1, len(order)):
                    if _merged_footprint(order[i], order[j]) <= c_max:
                        merged_pair = (order[i].cluster_id, order[j].cluster_id)
                        found = True
                        break
                if found or order[i].footprint * 2 > c_max:
                    break
            if merged_pair is None:
                break  # nothing fits: accept more than k clusters
        a, b = merged_pair
        keep, gone = alive[a], alive[b]
        keep.ops.extend(gone.ops)
        keep.results |= gone.results
        keep.external = (keep.external | gone.external) - keep.results
        for op_id in gone.ops:
            cluster_of_op[op_id] = a
        del alive[b]
        merges += 1
        # fold b's edges into a's and refresh the affected heap entries
        for other, w in adj.pop(b).items():
            if other == b or other not in alive:
                continue
            adj[other].pop(b, None)
            if other == a:
                continue
            adj[a][other] = adj[a].get(other, 0) + w
            adj[other][a] = adj[a][other]
        for other, w in adj[a].items():
            if other in alive:
                fp = alive[a].footprint + alive[other].footprint
                heapq.heappush(
                    heap, (-w, fp, min(a, other), max(a, other)))
    return list(alive.values()), merges


def _merged_footprint(a: Cluster, b: Cluster) -> int:
    results = a.results | b.results
    external = (a.external | b.external) - results
    return len(results) + len(external)
