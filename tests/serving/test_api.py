"""One serving surface, three deployment shapes.

ServingAPI is the contract that lets code written against the
in-process :class:`QueryService` run unchanged against the replicated
and sharded clusters: every verb exists on every service and answers the
same.
"""

from __future__ import annotations

import inspect

import pytest

import repro.serving as serving
from repro.serving import (
    ClusterService,
    QueryService,
    ServingAPI,
    ShardedClusterService,
)
from repro.serving.api import ServingAPI as CanonicalServingAPI

APA = "author-paper-author"

VERBS = ("similar", "connected", "rank", "watch")


@pytest.fixture(
    params=["service", "cluster", "sharded"],
    ids=["QueryService", "ClusterService", "ShardedClusterService"],
)
def any_service(request, small_bib):
    """Each deployment shape behind the identical surface."""
    if request.param == "service":
        factory = QueryService(small_bib)
    elif request.param == "cluster":
        factory = ClusterService(small_bib, processes=1)
    else:
        factory = ShardedClusterService(small_bib, [APA], shards=2)
    with factory as service:
        yield service


class TestSurface:
    def test_every_service_is_a_serving_api(self, any_service):
        assert isinstance(any_service, ServingAPI)

    def test_verbs_share_one_definition(self):
        # the mixin's method objects ARE each service's — no copies to
        # drift apart, which is the point of the redesign
        for cls in (QueryService, ClusterService, ShardedClusterService):
            for verb in VERBS:
                assert getattr(cls, verb) is getattr(CanonicalServingAPI, verb)

    def test_signatures_are_identical_across_services(self):
        for verb in VERBS:
            reference = inspect.signature(getattr(QueryService, verb))
            for cls in (ClusterService, ShardedClusterService):
                assert inspect.signature(getattr(cls, verb)) == reference

    def test_exports(self):
        for name in ("ServingAPI", "QueryService", "ClusterService",
                     "ShardedClusterService", "ShardPlan"):
            assert name in serving.__all__
            assert getattr(serving, name) is not None

    def test_mixin_alone_is_abstract(self):
        with pytest.raises(NotImplementedError):
            ServingAPI().similar("a0", APA, 1)


class TestBehaviour:
    def test_similar_answers_everywhere(self, small_bib, any_service):
        expected = small_bib.engine().pathsim_top_k(APA, "a0", 2)
        got = any_service.similar("a0", APA, 2).result(timeout=60)
        assert list(got) == list(expected)

    def test_watch_verb_everywhere(self, small_bib, any_service):
        handle = any_service.watch("a0", APA, k=2).result(timeout=60)
        _epoch, current = handle.current()
        assert list(current) == list(
            small_bib.engine().pathsim_top_k(APA, "a0", 2)
        )
