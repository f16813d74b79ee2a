"""Deterministic DBLP-shaped XML fixtures for tests and benchmarks.

The CI box cannot download the multi-GB ``dblp.xml``, but the ingest
path must still be exercised against *real-shaped* input.  This module
closes the loop with the synthetic four-area generator: it serializes a
:class:`~repro.datasets.dblp.DblpFourArea` network into the DBLP record
format (``<inproceedings key=...>`` with ``<author>``/``<title>``/
``<year>``/``<booktitle>`` children, entities escaped), where each
paper's title is exactly its mentioned terms — so stream-ingesting the
file must reproduce the generator's network **bit-for-bit in canonical
form**.  That round trip (generator → XML → parser → chunked
``hin.apply()`` → :func:`~repro.ingest.stream.canonical_state`) is the
strongest differential oracle the ingest tests have, and the same
writer scaled up feeds the benchmark's ``bulk_ingest`` workload.
"""

from __future__ import annotations

from pathlib import Path
from xml.sax.saxutils import escape, quoteattr

import numpy as np

from repro.datasets.dblp import DblpFourArea, make_dblp_four_area
from repro.ingest.dblp_xml import PubRecord

__all__ = ["dataset_records", "write_dblp_xml", "record_xml", "make_fixture_xml"]


def dataset_records(dataset: DblpFourArea) -> list[PubRecord]:
    """The generator network as one :class:`PubRecord` per paper.

    Record key = the paper's node name; authors in index order; the
    title is the space-joined mentioned terms (in term-index order), so
    the ingest tokenizer recovers them exactly.
    """
    hin = dataset.hin
    writes = hin.relation_matrix("writes").tocsc()
    published_in = hin.relation_matrix("published_in").tocsr()
    mentions = hin.relation_matrix("mentions").tocsr()
    authors = hin.names("author")
    papers = hin.names("paper")
    venues = hin.names("venue")
    terms = hin.names("term")
    records = []
    for p in range(hin.node_count("paper")):
        author_idx = writes.indices[writes.indptr[p] : writes.indptr[p + 1]]
        venue_idx = published_in.indices[
            published_in.indptr[p] : published_in.indptr[p + 1]
        ]
        term_idx = mentions.indices[mentions.indptr[p] : mentions.indptr[p + 1]]
        records.append(
            PubRecord(
                key=papers[p],
                kind="inproceedings",
                title=" ".join(terms[t] for t in term_idx),
                year=int(dataset.paper_years[p]),
                venue=venues[venue_idx[0]] if venue_idx.size else None,
                authors=tuple(authors[a] for a in author_idx),
            )
        )
    return records


def write_dblp_xml(
    dataset: DblpFourArea,
    path,
    *,
    shuffle_seed: int | None = None,
    mutate=None,
) -> int:
    """Serialize *dataset* as DBLP-shaped XML at *path*; returns the
    record count.

    Parameters
    ----------
    dataset:
        The generated four-area network to serialize.
    path:
        Output file path (written UTF-8).
    shuffle_seed:
        When given, records are written in a seeded random permutation
        instead of paper-index order — the shuffled-ingest differential
        fixture.
    mutate:
        Optional hook ``records -> records`` applied before writing —
        the tests' seam for injecting duplicates, truncations, and
        malformed records into an otherwise valid file.
    """
    records = dataset_records(dataset)
    if shuffle_seed is not None:
        order = np.random.default_rng(shuffle_seed).permutation(len(records))
        records = [records[i] for i in order]
    if mutate is not None:
        records = list(mutate(records))
    path = Path(path)
    with open(path, "w", encoding="utf-8") as f:
        f.write('<?xml version="1.0" encoding="UTF-8"?>\n')
        f.write("<dblp>\n")
        for record in records:
            f.write(record_xml(record))
        f.write("</dblp>\n")
    return len(records)


def record_xml(record: PubRecord) -> str:
    """One record element as XML text (entities escaped)."""
    lines = [f"<{record.kind} key={quoteattr(record.key)} mdate=\"2010-01-01\">"]
    for author in record.authors:
        lines.append(f"  <author>{escape(author)}</author>")
    lines.append(f"  <title>{escape(record.title)}.</title>")
    if record.year is not None:
        lines.append(f"  <year>{record.year}</year>")
    if record.venue is not None:
        tag = "journal" if record.kind == "article" else "booktitle"
        lines.append(f"  <{tag}>{escape(record.venue)}</{tag}>")
    lines.append(f"</{record.kind}>")
    return "\n".join(lines) + "\n"


def make_fixture_xml(
    path,
    *,
    papers_per_area: int = 75,
    seed: int = 23,
    shuffle_seed: int | None = None,
) -> tuple[DblpFourArea, int]:
    """Generate a deterministic dataset and write its XML in one step.

    Returns ``(dataset, record_count)``.  The default size (300 papers)
    keeps test fixtures fast; pass a larger ``papers_per_area`` for a
    bigger deterministic slice.
    """
    dataset = make_dblp_four_area(papers_per_area=papers_per_area, seed=seed)
    count = write_dblp_xml(dataset, path, shuffle_seed=shuffle_seed)
    return dataset, count
