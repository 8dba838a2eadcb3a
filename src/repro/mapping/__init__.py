"""Mapping and scheduling: Algorithm 1 (naive) and Algorithm 2 (Sherlock)."""

from repro.mapping.base import MappingResult, MappingStats
from repro.mapping.clustering import Cluster, find_clusters, merge_clusters
from repro.mapping.multiarray import (
    ArrayAssignment,
    MultiArrayOptions,
    apply_recompute,
    assign_arrays,
    map_multiarray,
)
from repro.mapping.naive import map_naive
from repro.mapping.optimized import SherlockOptions, map_sherlock
from repro.mapping.partition import (
    Stage,
    combined_mapping,
    execute_staged,
    map_partitioned,
    run_program,
)

__all__ = [
    "ArrayAssignment",
    "Cluster",
    "MappingResult",
    "MappingStats",
    "MultiArrayOptions",
    "SherlockOptions",
    "Stage",
    "apply_recompute",
    "assign_arrays",
    "combined_mapping",
    "execute_staged",
    "find_clusters",
    "map_multiarray",
    "map_naive",
    "map_partitioned",
    "map_sherlock",
    "merge_clusters",
    "run_program",
]
