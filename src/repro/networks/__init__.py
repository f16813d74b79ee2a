"""Network substrates: homogeneous graphs, heterogeneous information
networks, schemas/meta-paths, generators, and plain-text IO."""

from repro.networks.generators import (
    barabasi_albert,
    erdos_renyi,
    forest_fire,
    planted_partition,
    planted_partition_with_anomalies,
    watts_strogatz,
)
from repro.networks.graph import Graph
from repro.networks.hin import HIN
from repro.networks.io import read_edge_list, read_hin, write_edge_list, write_hin
from repro.networks.schema import MetaPath, NetworkSchema, Relation, as_metapath
from repro.networks.updates import AppliedUpdate, Mutation, RelationDelta, UpdateBatch

__all__ = [
    "Graph",
    "HIN",
    "NetworkSchema",
    "Relation",
    "MetaPath",
    "as_metapath",
    "UpdateBatch",
    "Mutation",
    "AppliedUpdate",
    "RelationDelta",
    "erdos_renyi",
    "barabasi_albert",
    "watts_strogatz",
    "forest_fire",
    "planted_partition",
    "planted_partition_with_anomalies",
    "read_edge_list",
    "write_edge_list",
    "read_hin",
    "write_hin",
]
