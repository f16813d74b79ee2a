"""Streaming ingest: DBLP records -> bounded ``UpdateBatch`` commits.

Ingest here *is* an update-stream scenario, not a special loader.
:class:`StreamIngestor` consumes :class:`~repro.ingest.dblp_xml.PubRecord`
objects and folds them into the canonical DBLP star schema
(:func:`repro.datasets.dblp.dblp_schema` — the same helper the synthetic
generator builds from, so ``"A-P-V-P-A"`` means the same thing on real
and planted data) by emitting one :class:`~repro.networks.UpdateBatch`
per *chunk* of accepted records and committing it through the normal
``hin.apply()`` path.  Everything that rides the commit path — engine
cache maintenance, standing-query watches, cluster generation
republication — therefore exercises for free during a bulk load, and
the loaded network is bit-for-bit the network an equivalent update
stream would have produced.  (The planner's costs are not among them:
it reads shape and nnz off the matrices when it plans.)

Guarantees (pinned by ``tests/ingest/test_stream.py`` and
``tests/property/test_ingest_properties.py``):

* **chunk-count invariance** — the same record stream committed in 1
  chunk or N chunks yields bit-identical relation matrices (indices are
  assigned in first-appearance order, which chunking does not change),
  with ``hin.version`` equal to the chunk count;
* **order canonicalization** — shuffled record order permutes indices
  but not content: :func:`canonical_state` / :func:`state_digest` give
  the name-canonical form two ingests can be compared under;
* **no partial chunks** — a mid-stream :class:`~repro.exceptions.IngestError`
  discards the pending chunk whole; committed epochs are never touched.

Anomalous records are *skipped with a per-reason counter* (surfaced by
:meth:`StreamIngestor.ingest_stats`) under the default policy, or raise
a typed :class:`~repro.exceptions.MalformedRecordError` under
``on_error="raise"`` — they never corrupt a committed batch.
"""

from __future__ import annotations

import hashlib
import re
import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat

import numpy as np

from repro.datasets.dblp import empty_dblp_hin
from repro.exceptions import IngestError, MalformedRecordError
from repro.ingest.dblp_xml import ParseStats, PubRecord, iter_dblp_records
from repro.networks import UpdateBatch

__all__ = [
    "StreamIngestor",
    "IngestReport",
    "canonical_state",
    "state_digest",
    "tokenize_title",
]

_TOKEN_RE = re.compile(r"[a-z0-9_]+")

#: Skip reasons the ingestor counts (see :meth:`StreamIngestor.ingest_stats`).
_SKIP_REASONS = (
    "no_key",
    "no_title",
    "no_venue",
    "no_author",
    "duplicate_key",
)


def tokenize_title(title: str, *, min_len: int = 2) -> list[str]:
    """Order-preserving unique term tokens of a paper title.

    Lowercased ``[a-z0-9_]+`` runs of at least *min_len* characters;
    repeated words count once (the mentions relation is set-valued).
    """
    return [t for t in dict.fromkeys(_TOKEN_RE.findall(title.lower())) if len(t) >= min_len]


def _resolve(index: dict, names: list, base: int) -> tuple[np.ndarray, dict]:
    """Ids of *names* under *index*, in one pass: ``(ids, new)``, where
    the names *index* lacks take ids from *base* on in first-appearance
    order and *new* maps them to those ids."""
    ids = np.fromiter(map(index.get, names, repeat(-1)), np.int64, len(names))
    miss = ids < 0
    missing = list(compress(names, miss))
    new = dict(zip(dict.fromkeys(missing), count(base)))
    ids[miss] = list(map(new.__getitem__, missing))
    return ids, new


@dataclass(frozen=True)
class IngestReport:
    """What one :meth:`StreamIngestor.ingest` call did.

    Attributes
    ----------
    records:
        Publication records the parser yielded during this call.
    ingested:
        Records accepted into a committed batch.
    epochs:
        Update batches committed (``hin.version`` advanced by this many).
    skipped:
        ``{reason: count}`` for records dropped during this call.
    deduped_authors:
        Duplicate author names removed *within* records (records kept).
    seconds:
        Wall-clock time of the call.
    """

    records: int
    ingested: int
    epochs: int
    skipped: dict = field(default_factory=dict)
    deduped_authors: int = 0
    seconds: float = 0.0


class StreamIngestor:
    """Fold a DBLP record stream into a live HIN, one chunk per epoch.

    A paper's terms are its title's :func:`tokenize_title` tokens at
    the default length floor (two characters); a title with none is
    skipped as ``no_title``.

    Parameters
    ----------
    hin:
        The network to grow — any HIN over
        :func:`~repro.datasets.dblp.dblp_schema` with *named* types
        (resuming into a half-loaded network continues its id spaces).
        ``None`` starts from :func:`~repro.datasets.dblp.empty_dblp_hin`.
    chunk_size:
        Accepted records per committed :class:`~repro.networks.UpdateBatch`.
        The memory/latency knob: smaller chunks mean more epochs and
        fresher serving state; larger chunks amortize commit overhead.
    on_error:
        ``"skip"`` (default) drops anomalous records and counts them per
        reason; ``"raise"`` raises a typed
        :class:`~repro.exceptions.MalformedRecordError` on the first one
        (the pending chunk is discarded, committed epochs stay).

    Raises
    ------
    repro.exceptions.IngestError
        When *hin*'s schema is not the DBLP star schema, a type is
        anonymous (streaming needs name-keyed identity), or *on_error*
        is not a known policy.
    """

    def __init__(
        self,
        hin=None,
        *,
        chunk_size: int = 1000,
        on_error: str = "skip",
    ):
        if on_error not in ("skip", "raise"):
            raise IngestError(
                f"on_error must be 'skip' or 'raise', got {on_error!r}"
            )
        if chunk_size < 1:
            raise IngestError(f"chunk_size must be >= 1, got {chunk_size}")
        from repro.datasets.dblp import dblp_schema

        self.hin = hin if hin is not None else empty_dblp_hin()
        if self.hin.schema != dblp_schema():
            raise IngestError(
                "StreamIngestor needs a network over the canonical DBLP "
                "star schema (repro.datasets.dblp_schema()); got "
                f"{self.hin.schema!r}"
            )
        self._chunk_size = int(chunk_size)
        self._strict = on_error == "raise"
        for t in self.hin.schema.node_types:
            if self.hin.names(t) is None:
                raise IngestError(
                    f"type {t!r} is anonymous; streaming ingest keys "
                    f"identity on node names"
                )
        self.paper_years: list[int | None] = [None] * self.hin.node_count(
            "paper"
        )
        self._parse_stats = ParseStats()
        self._skipped: dict[str, int] = {}
        self._deduped_authors = 0
        self._records = 0
        self._ingested = 0
        self._epochs = 0

    # ------------------------------------------------------------------
    # Ingest driving
    # ------------------------------------------------------------------
    def ingest(self, source) -> IngestReport:
        """Parse *source* (path / binary stream / record iterable) and
        commit every chunk; returns this call's :class:`IngestReport`.

        Raises
        ------
        repro.exceptions.IngestError
            Anything the parser raises (syntax, truncation, encoding)
            or, under ``on_error="raise"``, the first malformed record.
            Chunks committed before the failure stay committed; the
            pending partial chunk is discarded whole.
        """
        report = None
        for report in self.ingest_iter(source, _final=True):
            pass
        if report is None:  # pragma: no cover - ingest_iter always yields
            report = IngestReport(0, 0, 0)
        return report

    def ingest_iter(self, source, *, _final: bool = False) -> Iterator[IngestReport]:
        """Like :meth:`ingest`, but yield a cumulative-for-this-call
        :class:`IngestReport` after **every committed chunk** — the
        live-writer handle: a workload harness pulls one step per
        interval to interleave ingest with query traffic deterministically.

        The final yield (after the tail chunk commits) reports the whole
        call, equal to what :meth:`ingest` returns.
        """
        start = time.perf_counter()
        records0, ingested0, epochs0 = self._records, self._ingested, self._epochs
        skipped0 = dict(self._skipped)
        deduped0 = self._deduped_authors

        def snapshot() -> IngestReport:
            return IngestReport(
                records=self._records - records0,
                ingested=self._ingested - ingested0,
                epochs=self._epochs - epochs0,
                skipped={
                    reason: count - skipped0.get(reason, 0)
                    for reason, count in self._skipped.items()
                    if count - skipped0.get(reason, 0)
                },
                deduped_authors=self._deduped_authors - deduped0,
                seconds=time.perf_counter() - start,
            )

        buffer: list[tuple] = []
        for record in self._records_of(source):
            self._records += 1
            accepted = self._screen(record)
            if accepted is None:
                continue
            buffer.append(accepted)
            if len(buffer) >= self._chunk_size:
                self._commit(buffer)
                buffer = []
                yield snapshot()
        if buffer:
            self._commit(buffer)
            yield snapshot()
        elif _final or self._epochs == epochs0:
            yield snapshot()

    def _records_of(self, source) -> Iterator[PubRecord]:
        if isinstance(source, Iterable) and not isinstance(
            source, (str, bytes)
        ) and not hasattr(source, "read"):
            return iter(source)
        return iter_dblp_records(source, stats=self._parse_stats)

    # ------------------------------------------------------------------
    # Record screening (skip-with-counter or typed raise)
    # ------------------------------------------------------------------
    def _skip(self, reason: str, record: PubRecord) -> None:
        if self._strict:
            raise MalformedRecordError(
                f"record {record.key or '<missing key>'!r} rejected: {reason}"
            )
        self._skipped[reason] = self._skipped.get(reason, 0) + 1

    def _screen(self, record: PubRecord) -> tuple | None:
        """Validate one record; either a ``(paper, venue, authors, terms,
        year)`` tuple, or ``None`` after counting the skip reason."""
        if not record.key:
            self._skip("no_key", record)
            return None
        if record.key in self.hin._name_index["paper"]:
            self._skip("duplicate_key", record)
            return None
        terms = tokenize_title(record.title)
        if not terms:
            self._skip("no_title", record)
            return None
        if not record.venue:
            self._skip("no_venue", record)
            return None
        authors: list[str] = []
        seen: set[str] = set()
        for author in record.authors:
            if author in seen:
                if self._strict:
                    raise MalformedRecordError(
                        f"record {record.key!r} lists author {author!r} twice"
                    )
                self._deduped_authors += 1
                continue
            seen.add(author)
            authors.append(author)
        if not authors:
            self._skip("no_author", record)
            return None
        return (record.key, record.venue, tuple(authors), tuple(terms), record.year)

    # ------------------------------------------------------------------
    # Chunk commit
    # ------------------------------------------------------------------
    def _commit(self, rows: list[tuple]) -> None:
        """Build one UpdateBatch from *rows* and commit it atomically.

        The chunk is planned as columns: each node type's names resolve
        in one pass against the network's own name maps — so nodes added
        by any other writer are found, not re-added — new names taking
        ids in first-appearance order, and each relation goes to the
        edge door as one ``(m x 2)`` index array.  Nothing is recorded
        before ``hin.apply()`` succeeds, so a failed commit leaves no
        phantom ids behind.
        """
        # Duplicate keys within one chunk were screened against the
        # committed map only; screen again against the chunk itself.
        kept: dict[str, tuple] = {}
        for row in rows:
            if row[0] in kept:
                self._skip("duplicate_key", PubRecord(row[0], "", "", None, None, ()))
            else:
                kept[row[0]] = row
        keys, venues, authors, terms, years = zip(*kept.values())
        names = {
            "paper": keys,
            "venue": venues,
            "author": list(chain.from_iterable(authors)),
            "term": list(chain.from_iterable(terms)),
        }
        batch = UpdateBatch()
        ids = {}
        for t in self.hin.schema.node_types:
            ids[t], new = _resolve(self.hin._name_index[t], names[t], self.hin.node_count(t))
            if new:
                batch.add_nodes(t, list(new))
        paper = ids["paper"]
        by_author = np.repeat(paper, list(map(len, authors)))
        by_term = np.repeat(paper, list(map(len, terms)))
        batch.add_edges("writes", np.column_stack([ids["author"], by_author]))
        batch.add_edges("published_in", np.column_stack([paper, ids["venue"]]))
        batch.add_edges("mentions", np.column_stack([by_term, ids["term"]]))
        papers = self.hin.node_count("paper")
        self.hin.apply(batch)
        # Papers added by another writer have no year on record.
        self.paper_years.extend([None] * (papers - len(self.paper_years)))
        self.paper_years.extend(years)
        self._ingested += len(kept)
        self._epochs += 1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def ingest_stats(self) -> dict:
        """Lifetime counters of this ingestor (all calls combined).

        Keys: ``records`` seen, ``ingested``, ``epochs`` committed,
        ``skipped`` (``{reason: count}``), ``deduped_authors``,
        ``parse`` (the raw :class:`~repro.ingest.dblp_xml.ParseStats`),
        ``nodes`` per type and ``links`` of the live network.
        """
        return {
            "records": self._records,
            "ingested": self._ingested,
            "epochs": self._epochs,
            "skipped": dict(self._skipped),
            "deduped_authors": self._deduped_authors,
            "parse": self._parse_stats.as_dict(),
            "nodes": {
                t: self.hin.node_count(t) for t in self.hin.schema.node_types
            },
            "links": self.hin.total_links,
        }

    def __repr__(self) -> str:
        return (
            f"StreamIngestor(ingested={self._ingested}, "
            f"epochs={self._epochs}, hin={self.hin!r})"
        )


# ----------------------------------------------------------------------
# Canonical comparison of ingested networks
# ----------------------------------------------------------------------
def canonical_state(hin) -> dict:
    """*hin*'s content with every type's nodes reordered by name.

    Two networks that hold the same entities and links — however their
    arrival order assigned indices — have equal canonical states: per
    type the sorted name list, per relation the CSR matrix with rows and
    columns permuted into name order.  This is the equality the
    shuffled-ingest differential tests assert.
    """
    perms: dict[str, np.ndarray] = {}
    names: dict[str, list] = {}
    for t in hin.schema.node_types:
        node_names = hin.names(t)
        if node_names is None:
            perms[t] = np.arange(hin.node_count(t))
            names[t] = list(range(hin.node_count(t)))
        else:
            order = sorted(range(len(node_names)), key=node_names.__getitem__)
            perms[t] = np.asarray(order, dtype=np.int64)
            names[t] = [node_names[i] for i in order]
    matrices = {}
    for rel in hin.schema.relations:
        m = hin.relation_matrix(rel.name)
        canon = m[perms[rel.source], :][:, perms[rel.target]].tocsr()
        canon.sum_duplicates()
        canon.sort_indices()
        matrices[rel.name] = canon
    return {
        "counts": {t: hin.node_count(t) for t in hin.schema.node_types},
        "names": names,
        "matrices": matrices,
    }


def state_digest(hin) -> str:
    """SHA-256 over :func:`canonical_state` — one comparable string.

    Equal digests mean bit-identical canonical content: same node names
    per type, same links, same weights, independent of arrival order.
    """
    state = canonical_state(hin)
    h = hashlib.sha256()
    for t in sorted(state["counts"]):
        h.update(f"{t}:{state['counts'][t]}\n".encode())
        for name in state["names"][t]:
            h.update(str(name).encode())
            h.update(b"\x00")
    for rel in sorted(state["matrices"]):
        m = state["matrices"][rel]
        h.update(rel.encode())
        h.update(np.asarray(m.indptr, dtype=np.int64).tobytes())
        h.update(np.asarray(m.indices, dtype=np.int64).tobytes())
        h.update(np.asarray(m.data, dtype=np.float64).tobytes())
    return h.hexdigest()
