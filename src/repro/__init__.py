"""repro — database-oriented heterogeneous information network analysis.

A production-quality reproduction of the system described in the SIGMOD
2010 tutorial *"Mining Knowledge from Databases: An Information Network
Analysis Approach"* (Han, Sun, Yan, Yu): turn relational data into typed
information networks and mine them — ranking (PageRank, HITS, authority
ranking), similarity (SimRank, Personalized PageRank, PathSim), clustering
(spectral, SCAN, LinkClus, CrossClus, RankClus, NetClus), data integration
(object reconciliation, DISTINCT, TruthFinder), classification (CrossMine,
GNetMine, tag-graph), and OLAP over information networks.

Quickstart
----------
>>> from repro.datasets import make_dblp_four_area
>>> dblp = make_dblp_four_area(seed=0)
>>> q = dblp.hin.query()
>>> clusters = q.cluster("netclus", n_clusters=4, seed=0)
>>> peers = q.similar("SIGMOD", "V-P-A-P-V", k=3)  # doctest: +SKIP
[('VLDB', 0.787), ('ICDE', 0.736), ('PODS', 0.575)]
"""

from repro import (
    classification,
    clustering,
    core,
    datasets,
    engine,
    ingest,
    integration,
    measures,
    networks,
    olap,
    query,
    ranking,
    relational,
    serving,
    similarity,
)
from repro.ingest import StreamIngestor
from repro.engine import MetaPathEngine
from repro.exceptions import ReproError
from repro.networks import (
    HIN,
    AppliedUpdate,
    Graph,
    MetaPath,
    NetworkSchema,
    Relation,
    UpdateBatch,
    as_metapath,
)
from repro.query import (
    ClassificationResult,
    ClusteringResult,
    Estimator,
    QuerySession,
    RankingResult,
    TopKResult,
    connect,
)
from repro.serving import (
    ClusterService,
    QueryService,
    load_snapshot,
    save_snapshot,
)

__version__ = "1.0.0"

__all__ = [
    "Graph",
    "HIN",
    "NetworkSchema",
    "Relation",
    "MetaPath",
    "MetaPathEngine",
    "UpdateBatch",
    "AppliedUpdate",
    "ReproError",
    "QuerySession",
    "connect",
    "QueryService",
    "ClusterService",
    "save_snapshot",
    "load_snapshot",
    "as_metapath",
    "Estimator",
    "RankingResult",
    "TopKResult",
    "ClusteringResult",
    "ClassificationResult",
    "StreamIngestor",
    "networks",
    "engine",
    "ingest",
    "query",
    "serving",
    "relational",
    "measures",
    "ranking",
    "similarity",
    "clustering",
    "core",
    "integration",
    "classification",
    "olap",
    "datasets",
    "__version__",
]
