"""Ranking: PageRank, HITS, Personalized PageRank, and the bi-type
simple/authority ranking functions used by RankClus.

Ranking one node type by another on a network is spelled
``hin.query().rank(target, by=attribute)``, which returns a typed
:class:`~repro.query.results.RankingResult` (see ``docs/API.md``).
"""

from repro.ranking.authority import (
    BiTypeRanking,
    authority_ranking,
    simple_ranking,
)
from repro.ranking.hits import hits, hits_scores
from repro.ranking.pagerank import pagerank, pagerank_scores
from repro.ranking.ppr import (
    personalized_pagerank,
    ppr_top_k,
    random_walk_with_restart,
)

__all__ = [
    "pagerank",
    "pagerank_scores",
    "hits",
    "hits_scores",
    "personalized_pagerank",
    "ppr_top_k",
    "random_walk_with_restart",
    "BiTypeRanking",
    "simple_ranking",
    "authority_ranking",
]
