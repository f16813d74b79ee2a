"""Constant-memory streaming parser for DBLP-shaped XML.

The real ``dblp.xml`` is multiple gigabytes — three orders of magnitude
past what :func:`xml.etree.ElementTree.parse` can hold — but its
structure is trivially streamable: one ``<dblp>`` root whose children
are independent publication records (``<article>``, ``<inproceedings>``,
...).  :func:`iter_dblp_records` walks that stream with an
:class:`~xml.etree.ElementTree.XMLPullParser` fed in bounded byte
chunks, yields one :class:`PubRecord` per publication element, and
**clears every record element (and its slot under the root) as soon as
it is yielded** — the classic ``iterparse``-and-``clear()`` discipline —
so peak memory is bounded by the largest single record, not by the file.
``tests/ingest/test_dblp_xml.py`` measures exactly this with
``tracemalloc``: parsing a 3x longer stream may not move the allocation
peak.

Error taxonomy (all under :class:`repro.exceptions.IngestError`):

* not-well-formed bytes -> :class:`repro.exceptions.XmlSyntaxError`;
* stream ends mid-document -> :class:`repro.exceptions.TruncatedXmlError`;
* bytes invalid in the declared encoding ->
  :class:`repro.exceptions.IngestEncodingError`.

Records already yielded before the failure point are good — a caller
that commits incrementally (:class:`repro.ingest.StreamIngestor`) keeps
everything up to the last complete chunk and loses only the tail.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import (
    IngestEncodingError,
    TruncatedXmlError,
    XmlSyntaxError,
)

__all__ = [
    "PubRecord",
    "ParseStats",
    "iter_dblp_records",
    "PUBLICATION_TAGS",
    "KNOWN_RECORD_TAGS",
]

#: DBLP record elements that map onto the paper/venue/author star schema.
#: ``article`` takes its venue from ``<journal>``, the rest from
#: ``<booktitle>``.
PUBLICATION_TAGS = frozenset({"article", "inproceedings", "incollection"})

#: Every record element the real dblp.xml contains.  Known-but-unmapped
#: kinds (a thesis has no venue relation, ``www`` is a homepage) are
#: counted as ``skipped_kind`` rather than flagged unknown.
KNOWN_RECORD_TAGS = PUBLICATION_TAGS | frozenset(
    {"proceedings", "book", "phdthesis", "mastersthesis", "www", "data"}
)

#: Child elements a publication record may carry; anything else (a new
#: DBLP field, a typo'd tag) bumps ``unknown_fields`` instead of
#: corrupting the mapping.
_FIELD_TAGS = frozenset(
    {
        "author",
        "editor",
        "title",
        "year",
        "journal",
        "booktitle",
        "pages",
        "ee",
        "url",
        "crossref",
        "volume",
        "number",
        "month",
        "publisher",
        "school",
        "isbn",
        "series",
        "note",
        "cite",
        "cdrom",
    }
)

_CHUNK_BYTES = 1 << 16


@dataclass(frozen=True)
class PubRecord:
    """One publication element, mapped to the star-schema fields.

    Attributes
    ----------
    key:
        The DBLP record key (``key="conf/sigmod/..."``); becomes the
        paper's node name.  Empty when the attribute is missing.
    kind:
        The record element tag (``"article"``, ``"inproceedings"``, ...).
    title:
        Title text (terms are tokenized from it downstream).
    year:
        Publication year, ``None`` when absent or non-numeric.
    venue:
        ``<journal>`` for articles, ``<booktitle>`` otherwise; ``None``
        when the record carries neither.
    authors:
        Author names in record order — duplicates preserved (the
        ingestor deduplicates and counts them).
    """

    key: str
    kind: str
    title: str
    year: int | None
    venue: str | None
    authors: tuple[str, ...]


@dataclass
class ParseStats:
    """Counters one parse pass accumulates (shared with ``ingest_stats``).

    Attributes
    ----------
    records:
        Publication records yielded.
    skipped_kind:
        Record elements of known but unmapped kinds (theses, ``www``...).
    unknown_kind:
        Record elements whose tag is not a DBLP record tag at all.
    unknown_fields:
        Child elements inside publication records that the mapping does
        not know (counted, content ignored).
    bytes_fed:
        Raw bytes pushed through the pull parser.
    """

    records: int = 0
    skipped_kind: int = 0
    unknown_kind: int = 0
    unknown_fields: int = 0
    bytes_fed: int = 0

    def as_dict(self) -> dict:
        return {
            "records": self.records,
            "skipped_kind": self.skipped_kind,
            "unknown_kind": self.unknown_kind,
            "unknown_fields": self.unknown_fields,
            "bytes_fed": self.bytes_fed,
        }


def _classify_parse_error(exc: ET.ParseError, chunk: bytes) -> Exception:
    """Map a low-level ParseError onto the typed ingest hierarchy."""
    try:
        chunk.decode("utf-8")
    except UnicodeDecodeError as bad:
        # A multi-byte character split across the chunk boundary also
        # fails to decode, but expat buffers those fine — only an
        # invalid sequence strictly inside the chunk means bad bytes.
        if bad.start < len(chunk) - 4:
            return IngestEncodingError(
                f"byte stream is not valid UTF-8 at offset {bad.start}: {exc}"
            )
    return XmlSyntaxError(f"XML stream is not well-formed: {exc}")


def _record_of(elem, stats: ParseStats) -> PubRecord:
    """Fold one complete publication element into a :class:`PubRecord`."""
    title_parts: list[str] = []
    authors: list[str] = []
    year: int | None = None
    journal: str | None = None
    booktitle: str | None = None
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


def iter_dblp_records(
    source,
    *,
    stats: ParseStats | None = None,
    chunk_bytes: int = _CHUNK_BYTES,
) -> Iterator[PubRecord]:
    """Stream :class:`PubRecord` objects out of DBLP-shaped XML.

    Parameters
    ----------
    source:
        A filesystem path or a binary file-like object (anything with
        ``read``).  Text-mode files are rejected — encoding is the
        parser's job, and double-decoding corrupts multi-byte input.
    stats:
        Optional :class:`ParseStats` to accumulate into (the ingestor
        passes its own so skip counters surface in ``ingest_stats()``).
    chunk_bytes:
        Read size per feed; the memory bound knob (default 64 KiB).

    Yields
    ------
    One :class:`PubRecord` per publication element, in document order.

    Raises
    ------
    repro.exceptions.XmlSyntaxError
        On not-well-formed XML (wraps the expat error).
    repro.exceptions.TruncatedXmlError
        When the stream ends before the document closes.
    repro.exceptions.IngestEncodingError
        When the bytes are invalid in the declared encoding.
    """
    if stats is None:
        stats = ParseStats()
    own = isinstance(source, (str, Path))
    stream = open(source, "rb") if own else source
    if hasattr(stream, "mode") and "b" not in getattr(stream, "mode", "b"):
        if own:
            stream.close()
        raise ValueError("iter_dblp_records needs a binary stream or a path")
    parser = ET.XMLPullParser(events=("start", "end"))
    root = None
    depth = 0
    try:
        while True:
            chunk = stream.read(chunk_bytes)
            if not chunk:
                break
            if isinstance(chunk, str):
                raise ValueError(
                    "iter_dblp_records needs bytes; open the file in 'rb' mode"
                )
            stats.bytes_fed += len(chunk)
            parser.feed(chunk)
            # XMLPullParser defers feed()-time expat errors into the
            # event queue: events before the failure point come out
            # first, then the ParseError is raised.  Iterate manually so
            # complete records ahead of the bad bytes still get yielded.
            events = parser.read_events()
            while True:
                try:
                    event, elem = next(events)
                except StopIteration:
                    break
                except ET.ParseError as exc:
                    raise _classify_parse_error(exc, chunk) from exc
                if event == "start":
                    if root is None:
                        root = elem
                    depth += 1
                    continue
                depth -= 1
                if depth != 1 or elem is root:
                    continue
                # A complete record element just closed directly under
                # the root: yield it, then drop both its subtree and its
                # slot in the root's child list — the constant-memory
                # discipline.
                try:
                    if elem.tag in PUBLICATION_TAGS:
                        stats.records += 1
                        yield _record_of(elem, stats)
                    elif elem.tag in KNOWN_RECORD_TAGS:
                        stats.skipped_kind += 1
                    else:
                        stats.unknown_kind += 1
                finally:
                    elem.clear()
                    if root is not None and len(root):
                        del root[:]
        try:
            parser.close()
        except ET.ParseError as exc:
            raise TruncatedXmlError(
                f"XML stream ended mid-document: {exc}"
            ) from exc
        if root is None:
            raise TruncatedXmlError("XML stream is empty (no document element)")
    finally:
        if own:
            stream.close()
