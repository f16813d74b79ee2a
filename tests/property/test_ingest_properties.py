"""Property-based invariants of streaming ingest.

The central claim: the committed network is a pure function of the
*record stream content* — chunk boundaries never change it bit-for-bit,
record order never changes it canonically, and malformed or duplicate
records are screened identically however the stream is chunked.
Hypothesis hunts for the chunk size, shuffle, or injected anomaly that
breaks one of those equalities, including multi-byte characters split
across XML parser read boundaries.  The streaming reader itself is held
to a whole-document :func:`xml.etree.ElementTree.fromstring` fold over
generated DBLP-shaped documents.
"""

from __future__ import annotations

import io
import math
import xml.etree.ElementTree as ET

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ingest import (
    KNOWN_RECORD_TAGS,
    PUBLICATION_TAGS,
    ParseStats,
    PubRecord,
    StreamIngestor,
    iter_dblp_records,
    record_xml,
    state_digest,
)
from repro.ingest.dblp_xml import _FIELD_TAGS
from repro.networks import UpdateBatch

_WORDS = ["graph", "mining", "rank", "cluster", "path", "join", "cube", "sim"]
_AUTHORS = ["Ada", "Bo", "Çelik", "Dmitri", "Éva", "Fäy", "Guō", "Hà"]
_VENUES = ["SIGMOD", "VLDB", "KDD", "ICDE"]


@st.composite
def records(draw, min_size=1, max_size=30):
    """A stream of mostly-valid records with occasional anomalies."""
    n = draw(st.integers(min_size, max_size))
    out = []
    for i in range(n):
        anomaly = draw(
            st.sampled_from(
                ["ok", "ok", "ok", "ok", "no_key", "no_title", "no_venue",
                 "no_author", "duplicate_key", "duplicate_author"]
            )
        )
        authors = tuple(
            draw(st.lists(st.sampled_from(_AUTHORS), min_size=1, max_size=3,
                          unique=True))
        )
        title = " ".join(
            draw(st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4))
        )
        rec = PubRecord(
            key=f"conf/x/{i}",
            kind="inproceedings",
            title=title,
            year=draw(st.integers(1990, 2010)),
            venue=draw(st.sampled_from(_VENUES)),
            authors=authors,
        )
        if anomaly == "no_key":
            rec = PubRecord("", rec.kind, rec.title, rec.year, rec.venue, rec.authors)
        elif anomaly == "no_title":
            rec = PubRecord(rec.key, rec.kind, "", rec.year, rec.venue, rec.authors)
        elif anomaly == "no_venue":
            rec = PubRecord(rec.key, rec.kind, rec.title, rec.year, None, rec.authors)
        elif anomaly == "no_author":
            rec = PubRecord(rec.key, rec.kind, rec.title, rec.year, rec.venue, ())
        elif anomaly == "duplicate_key" and out:
            rec = PubRecord(out[draw(st.integers(0, len(out) - 1))].key,
                            rec.kind, rec.title, rec.year, rec.venue, rec.authors)
        elif anomaly == "duplicate_author":
            rec = PubRecord(rec.key, rec.kind, rec.title, rec.year, rec.venue,
                            rec.authors + (rec.authors[0],))
        out.append(rec)
    return out


def _ingest(recs, chunk_size):
    ing = StreamIngestor(chunk_size=chunk_size)
    ing.ingest(recs)
    return ing


def _bitwise_equal(a, b) -> bool:
    for t in a.schema.node_types:
        if a.names(t) != b.names(t):
            return False
    return all(
        (a.relation_matrix(r.name) != b.relation_matrix(r.name)).nnz == 0
        for r in a.schema.relations
    )


class TestChunkInvariance:
    @settings(max_examples=30, deadline=None)
    @given(recs=records(), chunk_size=st.integers(1, 40))
    def test_any_chunking_bit_identical(self, recs, chunk_size):
        whole = _ingest(recs, 10**6)
        chunked = _ingest(recs, chunk_size)
        assert _bitwise_equal(whole.hin, chunked.hin)
        stats = chunked.ingest_stats()
        dups = stats["skipped"].get("duplicate_key", 0)
        if dups == 0:
            # Chunks form on screened records, so without duplicates
            # epoch count is exactly the chunk count.
            assert chunked.hin.version == math.ceil(stats["ingested"] / chunk_size)
        else:
            # A within-chunk duplicate occupies a buffer slot but is
            # dropped at commit, so the count can only round up.
            low = math.ceil(stats["ingested"] / chunk_size)
            high = math.ceil((stats["ingested"] + dups) / chunk_size)
            assert low <= chunked.hin.version <= high

    @settings(max_examples=30, deadline=None)
    @given(recs=records(), chunk_size=st.integers(1, 40))
    def test_screening_counters_chunking_independent(self, recs, chunk_size):
        whole = _ingest(recs, 10**6)
        chunked = _ingest(recs, chunk_size)
        sw, sc = whole.ingest_stats(), chunked.ingest_stats()
        assert sw["skipped"] == sc["skipped"]
        assert sw["deduped_authors"] == sc["deduped_authors"]
        assert sw["ingested"] == sc["ingested"]

    @settings(max_examples=30, deadline=None)
    @given(
        recs=records(min_size=2),
        seed=st.integers(0, 2**16),
        chunk_size=st.integers(1, 40),
    )
    def test_shuffle_same_canonical_digest(self, recs, seed, chunk_size):
        import numpy as np

        order = np.random.default_rng(seed).permutation(len(recs))
        shuffled = [recs[i] for i in order]
        a = _ingest(recs, chunk_size)
        b = _ingest(shuffled, chunk_size)
        # Shuffling can move a duplicate key ahead of its original, so
        # which twin survives differs — but only when duplicates exist.
        if a.ingest_stats()["skipped"].get("duplicate_key"):
            return
        assert state_digest(a.hin) == state_digest(b.hin)


def _loop_commit(ing, rows):
    """The per-record, per-name chunk plan the column plan replaced:
    names resolve one at a time into Python edge tuples (the reference)."""
    counts = {t: ing.hin.node_count(t) for t in ing.hin.schema.node_types}
    planned = {t: {} for t in counts}

    def resolve(t, name):
        index = ing.hin._name_index[t]
        if name in index:
            return index[name]
        return planned[t].setdefault(name, counts[t] + len(planned[t]))

    edges = {"writes": [], "published_in": [], "mentions": []}
    for key, venue, authors, terms, _ in rows:
        if key in planned["paper"]:
            ing._skip("duplicate_key", PubRecord(key, "", "", None, None, ()))
            continue
        p = resolve("paper", key)
        edges["published_in"].append((p, resolve("venue", venue)))
        edges["writes"] += [(resolve("author", a), p) for a in authors]
        edges["mentions"] += [(p, resolve("term", t)) for t in terms]
    batch = UpdateBatch()
    for t, new in planned.items():
        if new:
            batch.add_nodes(t, list(new))
    for rel, pairs in edges.items():
        batch.add_edges(rel, pairs)
    ing.hin.apply(batch)


class TestColumnPlan:
    @settings(max_examples=40, deadline=None)
    @given(recs=records(), chunk_size=st.integers(1, 12))
    def test_column_plan_equals_the_per_name_loop(self, recs, chunk_size):
        """Same ids in the same order, bit-identical matrices and the
        same skip counters as resolving one name at a time."""
        columns = _ingest(recs, chunk_size)
        loop = StreamIngestor(chunk_size=chunk_size)
        loop._commit = lambda rows: _loop_commit(loop, rows)
        loop.ingest(recs)
        assert _bitwise_equal(columns.hin, loop.hin)
        assert columns.ingest_stats()["skipped"] == loop.ingest_stats()["skipped"]


class TestXmlRoundTrip:
    @settings(max_examples=25, deadline=None)
    @given(recs=records(max_size=12), chunk_bytes=st.integers(1, 257))
    def test_parser_chunk_boundaries_do_not_matter(self, recs, chunk_bytes):
        """Any read size — including ones that split multi-byte UTF-8
        characters — yields the same record stream."""
        doc = (
            '<?xml version="1.0" encoding="UTF-8"?>\n<dblp>\n'
            + "".join(record_xml(r) for r in recs)
            + "</dblp>\n"
        ).encode("utf-8")
        baseline = list(iter_dblp_records(io.BytesIO(doc)))
        fuzzed = list(iter_dblp_records(io.BytesIO(doc), chunk_bytes=chunk_bytes))
        assert fuzzed == baseline
        assert len(baseline) == len(recs)

    @settings(max_examples=25, deadline=None)
    @given(recs=records(max_size=10), chunk_size=st.integers(1, 20))
    def test_xml_and_direct_records_ingest_identically(self, recs, chunk_size):
        """Serialize -> parse -> ingest equals ingesting the records
        directly, modulo the title-tokenizer (titles here are clean)."""
        doc = io.BytesIO(
            (
                '<?xml version="1.0" encoding="UTF-8"?>\n<dblp>\n'
                + "".join(record_xml(r) for r in recs)
                + "</dblp>\n"
            ).encode("utf-8")
        )
        via_xml = StreamIngestor(chunk_size=chunk_size)
        via_xml.ingest(doc)
        direct = StreamIngestor(chunk_size=chunk_size)
        direct.ingest(recs)
        assert state_digest(via_xml.hin) == state_digest(direct.hin)


# ----------------------------------------------------------------------
# The streaming reader against a whole-document ElementTree fold
# ----------------------------------------------------------------------
_PIECES = st.sampled_from(
    ["Graph", " mining ", "Çelik", "Guō", "&#233;", "&#x4e2d;", "&amp;",
     "&lt;b&gt;", "<![CDATA[a<b & c]]>", "<i>Path</i>", "<sub>2<b>x</b></sub>",
     "  ", "", "2001", " 1999 "]
)
_FIELDS = ["author", "author", "title", "year", "journal", "booktitle",
           "pages", "ee", "hologram"]
_KINDS = sorted(PUBLICATION_TAGS) * 2 + ["phdthesis", "www", "banana"]


@st.composite
def dblp_documents(draw):
    """DBLP-shaped XML: publication and other records, keys present,
    escaped or missing, fields known, blank or unknown, text mixing
    character references, ``&amp;``, CDATA and nested markup."""
    records = []
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(_KINDS))
        key = draw(st.sampled_from([f' key="k/{i}"', f' key="k/{i}&amp;x"', ""]))
        fields = "".join(
            f"<{tag}>{''.join(draw(st.lists(_PIECES, max_size=4)))}</{tag}>"
            + draw(st.sampled_from(["", "\n  "]))
            for tag in draw(st.lists(st.sampled_from(_FIELDS), max_size=7))
        )
        records.append(f"<{kind}{key}>{fields}</{kind}>\n")
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n<dblp>\n'
        + "".join(records)
        + "</dblp>\n"
    ).encode("utf-8")


def _record_of(elem, stats: ParseStats) -> PubRecord:
    """One publication element folded the way the reader must fold it."""
    title_parts, authors = [], []
    year = journal = booktitle = None
    for child in elem:
        text = "".join(child.itertext()).strip()
        if child.tag == "author":
            if text:
                authors.append(text)
        elif child.tag == "title":
            if text:
                title_parts.append(text)
        elif child.tag == "year":
            try:
                year = int(text)
            except ValueError:
                year = None
        elif child.tag == "journal":
            journal = text or None
        elif child.tag == "booktitle":
            booktitle = text or None
        elif child.tag not in _FIELD_TAGS:
            stats.unknown_fields += 1
    venue = journal if elem.tag == "article" else booktitle
    if venue is None:
        venue = journal or booktitle
    return PubRecord(
        key=elem.get("key", ""),
        kind=elem.tag,
        title=" ".join(title_parts),
        year=year,
        venue=venue,
        authors=tuple(authors),
    )


def _oracle(doc: bytes) -> tuple[list, ParseStats]:
    stats = ParseStats(bytes_fed=len(doc))
    records = []
    for elem in ET.fromstring(doc):
        if elem.tag in PUBLICATION_TAGS:
            stats.records += 1
            records.append(_record_of(elem, stats))
        elif elem.tag in KNOWN_RECORD_TAGS:
            stats.skipped_kind += 1
        else:
            stats.unknown_kind += 1
    return records, stats


class TestReaderOracle:
    @settings(max_examples=60, deadline=None)
    @given(doc=dblp_documents())
    def test_reader_equals_whole_document_fold(self, doc):
        want = _oracle(doc)
        for chunk_bytes in (1, 7, 4096, 65536):
            stats = ParseStats()
            got = list(iter_dblp_records(io.BytesIO(doc), stats=stats, chunk_bytes=chunk_bytes))
            assert (got, stats) == want, chunk_bytes
