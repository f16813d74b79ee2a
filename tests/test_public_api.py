"""Public-API regression guard: every documented name imports and
every subpackage's ``__all__`` is truthful."""

from __future__ import annotations

import importlib
import inspect

import pytest

SUBPACKAGES = [
    "repro",
    "repro.networks",
    "repro.engine",
    "repro.query",
    "repro.relational",
    "repro.measures",
    "repro.ranking",
    "repro.similarity",
    "repro.clustering",
    "repro.core",
    "repro.integration",
    "repro.classification",
    "repro.olap",
    "repro.datasets",
    "repro.utils",
    "repro.ingest",
    "repro.serving",
    "repro.watch",
]


@pytest.mark.parametrize("name", SUBPACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__"), f"{name} must declare __all__"
    for symbol in module.__all__:
        assert hasattr(module, symbol), f"{name}.{symbol} missing"


def test_ingest_exports_parsing_ingest_and_fixtures_only():
    """Pinned exactly: a traffic generator (or any other test harness)
    cannot grow back into the library unnoticed."""
    import repro.ingest

    assert sorted(repro.ingest.__all__) == [
        "IngestReport",
        "KNOWN_RECORD_TAGS",
        "PUBLICATION_TAGS",
        "ParseStats",
        "PubRecord",
        "StreamIngestor",
        "canonical_state",
        "dataset_records",
        "iter_dblp_records",
        "make_fixture_xml",
        "record_xml",
        "state_digest",
        "tokenize_title",
        "write_dblp_xml",
    ]


def test_the_generation_container_exports_publish_and_attach_only():
    """Pinned exactly: a second container (another writer, reader or
    file format beside the segment image) cannot grow back unnoticed."""
    import repro.serving.shm

    assert sorted(repro.serving.shm.__all__) == [
        "AttachedGeneration",
        "PublishedGeneration",
        "attach_generation",
        "publish_generation",
    ]


def test_root_and_serving_exports_are_pinned():
    """Pinned exactly: one way to disk (``save_snapshot``) and one way
    back (``load_snapshot``) — a second restore route cannot grow back
    unnoticed."""
    import repro
    import repro.serving

    assert sorted(repro.serving.__all__) == [
        "ClusterService",
        "QueryService",
        "ShardPlan",
        "ShardedClusterService",
        "load_snapshot",
        "network_fingerprint",
        "save_snapshot",
    ]
    assert sorted(repro.__all__) == sorted(
        [
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
    )


def test_save_snapshot_takes_a_network_and_a_path():
    """``save_snapshot(hin, path)`` is the one way to disk: no engine
    method beside it, no target that may be either."""
    from repro.engine import MetaPathEngine
    from repro.serving import save_snapshot

    params = inspect.signature(save_snapshot).parameters.values()
    assert [(p.name, p.kind.name, p.default) for p in params] == [
        ("hin", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("path", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
    ]
    assert not hasattr(MetaPathEngine, "save_snapshot")


def test_cache_info_carries_counters_only():
    """``engine.epoch`` says which epoch a cache describes; ``CacheInfo``
    carries no second version counter."""
    import dataclasses

    from repro.utils.cache import CacheInfo

    assert [f.name for f in dataclasses.fields(CacheInfo)] == [
        "hits",
        "misses",
        "evictions",
        "currsize",
        "maxsize",
    ]


def test_version():
    import repro

    assert repro.__version__ == "1.0.0"


def test_headline_classes_reachable_from_root():
    import repro

    assert repro.core.RankClus
    assert repro.core.NetClus
    assert repro.similarity.PathSim
    assert repro.integration.TruthFinder
    assert repro.integration.CopyAwareTruthFinder
    assert repro.classification.CrossMine
    assert repro.classification.GNetMine
    assert repro.clustering.LinkClus
    assert repro.clustering.CrossClus
    assert repro.olap.InfoNetCube


def test_module_docstrings_exist():
    for name in SUBPACKAGES:
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} needs a module docstring"


def test_quickstart_docstring_flow():
    # the README quickstart, executed
    from repro.core import NetClus
    from repro.datasets import make_dblp_four_area
    from repro.similarity import PathSim

    dblp = make_dblp_four_area(
        authors_per_area=20, papers_per_area=40, seed=0
    )
    model = NetClus(n_clusters=4, seed=0, n_init=2, max_iter=5).fit(dblp.hin)
    tops = [v for v, _ in model.top_objects("venue", 0, 3)]
    assert len(tops) == 3
    ps = PathSim("venue-paper-author-paper-venue").fit(dblp.hin)
    peers = ps.top_k("SIGMOD", 3)
    assert len(peers) == 3


def test_query_facade_surface():
    """The unified query surface: everything reachable from one session."""
    import repro

    # top-level names
    for name in (
        "QuerySession",
        "connect",
        "as_metapath",
        "Estimator",
        "RankingResult",
        "TopKResult",
        "ClusteringResult",
        "ClassificationResult",
    ):
        assert hasattr(repro, name), name

    from repro.datasets import make_dblp_four_area

    hin = make_dblp_four_area(authors_per_area=10, papers_per_area=20, seed=0).hin
    q = hin.query()
    assert isinstance(q, repro.QuerySession)
    for op in ("rank", "similar", "similar_batch", "connected", "cluster",
               "classify", "olap", "path", "prewarm", "cache_info"):
        assert callable(getattr(q, op)), op

    # typed results from the flagship query paths
    peers = q.similar("SIGMOD", "V-P-A-P-V", k=3)
    assert isinstance(peers, repro.TopKResult)
    ranking = q.rank("venue", by="author", method="simple")
    assert isinstance(ranking, repro.RankingResult)


def test_estimators_implement_protocol():
    from repro.classification import GNetMine
    from repro.clustering import CrossClus, LinkClus
    from repro.core import NetClus, RankClus
    from repro.query import Estimator
    from repro.similarity import PathSim, SimRank

    for cls in (RankClus, NetClus, PathSim, SimRank, GNetMine, CrossClus, LinkClus):
        assert issubclass(cls, Estimator), cls.__name__


# ----------------------------------------------------------------------
# Requests say what, the engine decides how
# ----------------------------------------------------------------------
def _public_methods(cls):
    return {
        name: inspect.signature(member)
        for name, member in inspect.getmembers(cls, callable)
        if not name.startswith("_") or name == "__init__"
    }


def test_only_the_engine_constructor_chooses_how():
    """No method takes an association policy (``plan``): the planner is
    the one chain evaluator.  A kernel (``mode``) is accepted by the
    engine's constructor and — for ``benchmarks/perf/layers.py`` — by
    ``engine.pathsim_top_k``.  Nothing above the engine takes either."""
    from repro.engine import MetaPathEngine
    from repro.query import QuerySession
    from repro.serving import QueryService
    from repro.watch import WatchManager

    for cls in (QuerySession, QueryService, WatchManager):
        for name, signature in _public_methods(cls).items():
            assert not {"plan", "mode"} & set(signature.parameters), (
                f"{cls.__name__}.{name}"
            )
    takes = {"plan": set(), "mode": set()}
    for name, signature in _public_methods(MetaPathEngine).items():
        for knob in takes:
            if knob in signature.parameters:
                takes[knob].add(name)
    assert takes == {"plan": set(), "mode": {"__init__", "pathsim_top_k"}}


def test_engine_and_session_constructors_are_pinned():
    """Nothing outside the tests ever set the rebuild threshold, the
    fused auto-dispatch threshold, the association policy or the
    SimRank cache size; they are constants or gone, and no knob grows
    back unnoticed."""
    from repro.engine import MetaPathEngine
    from repro.query import QuerySession

    def unannotated(fn):
        sig = inspect.signature(fn)
        params = [p.replace(annotation=p.empty) for p in sig.parameters.values()]
        return str(sig.replace(parameters=params))

    assert unannotated(MetaPathEngine.__init__) == (
        "(self, hin, *, max_cached_matrices=64, mode='auto')"
    )
    assert unannotated(QuerySession.__init__) == "(self, hin, *, engine=None)"


def _params(fn):
    return [
        (p.name, p.kind.name, p.default)
        for p in inspect.signature(fn).parameters.values()
    ]


def test_one_pathsim_top_k_route_is_pinned():
    """A query of one is a batch of one: no blocked fused kernel and no
    fused partial block beside the row kernel, and the batch entry point
    names no kernel."""
    import repro.engine
    from repro.engine import MetaPathEngine

    assert sorted(repro.engine.__all__) == [
        "ChainPlan",
        "ChainPlanner",
        "MetaPathEngine",
        "PlanReport",
        "finalize_top_k",
        "fused_row_scores",
        "top_k_indices",
    ]
    assert _params(MetaPathEngine.pathsim_top_k_batch) == [
        ("self", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("path", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("queries", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("k", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("exclude_query", "KEYWORD_ONLY", True),
    ]


def test_batch_bound_and_term_floor_are_constants():
    """No caller ever set a service's ``max_batch`` or the ingestor's
    ``min_term_len``: the batch bound is ``serving.service._MAX_BATCH``
    and the term floor ``tokenize_title``'s default."""
    from repro.ingest import StreamIngestor
    from repro.serving import ClusterService, QueryService, ShardedClusterService

    for cls in (QueryService, ClusterService, ShardedClusterService):
        assert "max_batch" not in inspect.signature(cls.__init__).parameters
    assert [name for name, _, _ in _params(StreamIngestor.__init__)] == [
        "self", "hin", "chunk_size", "on_error",
    ]


def test_query_service_takes_no_backend():
    """A process tier is a ``QueryService`` that overrides ``run_group``,
    so the service is built from a network and a thread count only."""
    from repro.serving import QueryService

    assert _params(QueryService.__init__) == [
        ("self", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("hin", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("workers", "KEYWORD_ONLY", 2),
    ]


def test_graph_from_edges_has_no_dtype_knob():
    """``Graph`` stores float64 whatever it is handed; a ``dtype=`` on the
    edge-list constructor could only truncate weights on the way in."""
    from repro.networks import Graph

    params = inspect.signature(Graph.from_edges).parameters.values()
    assert [(p.name, p.kind.name, p.default) for p in params] == [
        ("n_nodes", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("edges", "POSITIONAL_OR_KEYWORD", inspect.Parameter.empty),
        ("directed", "KEYWORD_ONLY", False),
        ("node_names", "KEYWORD_ONLY", None),
    ]


def test_watch_spec_and_result_carry_what_not_how():
    import dataclasses

    from repro.query.results import TopKResult
    from repro.watch import WatchSpec

    assert [f.name for f in dataclasses.fields(WatchSpec)] == [
        "measure", "path", "query", "k", "exclude_self",
    ]
    assert not hasattr(TopKResult([("x", 1.0)]), "plan")
    with pytest.raises(TypeError):
        TopKResult([], plan="auto")


def test_request_shapes_match_the_api_table():
    """The shapes the four verbs enqueue have exactly the arities of the
    table in ``repro.serving.service``'s module docstring."""
    from repro.serving import QueryService

    class Core(QueryService):
        def __init__(self):  # no queue and no threads: only the verbs run
            self.submitted = []

        def _spell(self, path):
            return path

        def _submit(self, shape, obj):
            self.submitted.append((shape, obj))

    core = Core()
    core.similar("a0", "A-P-A", 3)
    core.similar("a0", "A-P-A", 3, measure="simrank")
    core.connected("a0", "A-P-V", 3)
    core.watch("a0", "A-P-A", 3)
    core.rank("venue", by="author")
    assert core.submitted == [
        (("pathsim", "A-P-A", 3, True), "a0"),
        (("similar", "A-P-A", 3, "simrank", True), "a0"),
        (("connected", "A-P-V", 3, False), "a0"),
        (("watch", "A-P-A", 3, "pathsim", None), "a0"),
        (("rank", (("by", "author"),)), "venue"),
    ]
