"""Constant-memory streaming parser for DBLP-shaped XML.

The real ``dblp.xml`` is multiple gigabytes — three orders of magnitude
past what :func:`xml.etree.ElementTree.parse` can hold — but its
structure is trivially streamable: one ``<dblp>`` root whose children
are independent publication records (``<article>``, ``<inproceedings>``,
...).  :func:`iter_dblp_records` feeds the stream to a stdlib
:mod:`xml.parsers.expat` reader in bounded byte slices and builds no
element tree: the handlers keep only a record's ``key`` and the text of
its ``author`` / ``title`` / ``year`` / ``journal`` / ``booktitle``
fields (all character data inside the field, nested markup included,
like ``itertext()``), fold each closed record into one
:class:`PubRecord`, and yield the records a slice completed before the
next slice is fed — so peak memory is bounded by a slice's records, not
by the file.  ``tests/ingest/test_dblp_xml.py`` measures exactly this
with ``tracemalloc``: parsing a 3x longer stream may not move the
allocation peak.

``dblp.xml`` declares Latin-1 named entities (``&uuml;``) in its
external ``dblp.dtd``, which is not read; a document that declares an
external DTD has such references resolved from
:data:`html.entities.name2codepoint`.  An unknown name, or any named
entity in a document without a DOCTYPE, is not well-formed.

Error taxonomy (all under :class:`repro.exceptions.IngestError`):

* not-well-formed bytes -> :class:`repro.exceptions.XmlSyntaxError`;
* stream ends mid-document -> :class:`repro.exceptions.TruncatedXmlError`;
* bytes invalid in the declared encoding ->
  :class:`repro.exceptions.IngestEncodingError`.

Records completed before the failure point are yielded before the error
is raised — a caller that commits incrementally
(:class:`repro.ingest.StreamIngestor`) keeps everything up to the last
complete chunk and loses only the tail.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from html.entities import name2codepoint
from pathlib import Path
from xml.parsers.expat import ExpatError, ParserCreate

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

#: The fields a :class:`PubRecord` is folded from.
_KEPT_FIELDS = frozenset({"author", "title", "year", "journal", "booktitle"})

_CHUNK_BYTES = 1 << 16
#: Bytes per ``Parse`` call; records are yielded after each slice.
_SLICE_BYTES = 1 << 12


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
        Raw bytes pushed through the parser.
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


def _classify_parse_error(exc: ExpatError, chunk: bytes) -> Exception:
    """Map a low-level expat error onto the typed ingest hierarchy."""
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


def _fold(record: dict) -> PubRecord:
    """One closed publication record's kept fields -> a :class:`PubRecord`.

    Repeated ``author`` / ``title`` fields accumulate (blank ones
    dropped); for the others the last occurrence wins.
    """
    try:
        year = int(record.get("year", ""))
    except ValueError:
        year = None
    journal, booktitle = record.get("journal") or None, record.get("booktitle") or None
    venue = journal if record["kind"] == "article" else booktitle
    return PubRecord(
        key=record["key"],
        kind=record["kind"],
        title=" ".join(record["title"]),
        year=year,
        venue=venue or journal or booktitle,
        authors=tuple(record["author"]),
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
        Read size per ``read`` call (default 64 KiB); each read is fed
        to the parser in slices of at most 4 KiB.

    Yields
    ------
    One :class:`PubRecord` per publication element, in document order.

    Raises
    ------
    repro.exceptions.XmlSyntaxError
        On not-well-formed XML (wraps the expat error), an unknown
        named entity among them.
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
    # Depth 1 is the root, 2 a record, 3 a record's field.  Character
    # data reaches `text` only while a kept field of a publication
    # record is open: the handler is `text.append` then, None otherwise.
    parser = ParserCreate(namespace_separator="}")
    parser.buffer_text = True
    depth, record, field = 0, None, None
    text: list[str] = []
    done: list[PubRecord] = []

    def start(tag, attrs):
        nonlocal depth, record, field
        depth += 1
        if depth == 2 and tag in PUBLICATION_TAGS:
            record = {"kind": tag, "key": attrs.get("key", ""), "author": [], "title": []}
        elif depth == 3 and record is not None:
            if tag in _KEPT_FIELDS:
                field = tag
                text.clear()
                parser.CharacterDataHandler = text.append
            elif tag not in _FIELD_TAGS:
                stats.unknown_fields += 1

    def end(tag):
        nonlocal depth, record, field
        depth -= 1
        if depth == 2 and field is not None:
            parser.CharacterDataHandler = None
            value = "".join(text).strip()
            if field == "author" or field == "title":
                if value:
                    record[field].append(value)
            else:
                record[field] = value
            field = None
        elif depth == 1:
            if record is not None:
                stats.records += 1
                done.append(_fold(record))
                record = None
            elif tag in KNOWN_RECORD_TAGS:
                stats.skipped_kind += 1
            else:
                stats.unknown_kind += 1

    def skipped(name, is_parameter_entity):
        if name not in name2codepoint:
            raise ExpatError(
                f"undefined entity &{name};: line {parser.CurrentLineNumber}, "
                f"column {parser.CurrentColumnNumber}"
            )
        if field is not None:
            text.append(chr(name2codepoint[name]))

    parser.StartElementHandler, parser.EndElementHandler = start, end
    parser.SkippedEntityHandler = skipped
    try:
        while chunk := stream.read(chunk_bytes):
            if isinstance(chunk, str):
                raise ValueError(
                    "iter_dblp_records needs bytes; open the file in 'rb' mode"
                )
            stats.bytes_fed += len(chunk)
            view = memoryview(chunk)
            for at in range(0, len(chunk), _SLICE_BYTES):
                try:
                    parser.Parse(view[at : at + _SLICE_BYTES], False)
                except ExpatError as exc:
                    yield from done  # the records ahead of the bad bytes
                    raise _classify_parse_error(exc, chunk) from exc
                yield from done
                done.clear()
        try:
            parser.Parse(b"", True)
        except ExpatError as exc:
            raise TruncatedXmlError(
                f"XML stream ended mid-document: {exc}"
            ) from exc
    finally:
        if own:
            stream.close()
